"""Closed-form settling-time bounds and empirical settling measurement.

The two-phase convergence argument behind the fixed-time decrement yields
integer step bounds:

    phase 1 (level above 1, superlinear branch):
        K1 <= floor((beta^(1/(1-r2)) - 1) / beta) + 1
    phase 2 (level at most 1, sublinear branch):
        K2 - K1 <= floor(alpha^(1/(r1-1))) + 1

and their sum, the initial-condition-independent settling bound.  Every
floor is decided exactly.  A float parameter stands for its shortest
round-trip decimal, ``Fraction(repr(x))``, which is the literal a config
gave: 0.25^(1/(0.5-1)) is exactly 16 and floors to 16 although float64
may land just below it, and an argument truly below an integer floors
below it however close it lies.  Each input is taken once, on entry, as
a (numerator, denominator) pair of ints, and travels as one; ``Fraction``
and ``Decimal`` appear only when a float bracket cannot decide a floor.
The module also provides the normalized q-sequence and the extinction
S-sequence those proofs rest on, implemented as independently checkable
constructs, plus the one entry-and-stay fold that every settling
measurement reads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .errors import LemmaPreconditionError, ParameterDomainError
from .lyapunov import FixedTimeGains
from .record import Record
from .systems import Trajectory, validate_example_params

if TYPE_CHECKING:
    from fractions import Fraction

# Unit roundoff of float64: a correctly rounded operation is within this
# relative distance of its exact result.
_U = 2.0 ** -53


def decimal_ratio(x) -> Tuple[int, int]:
    """The shortest round-trip decimal of ``x``, as a (numerator,
    denominator) pair of ints: ``2.5e-05`` gives ``(25, 10**6)``.

    ``float()`` comes first because numpy 2 writes ``repr(np.float64(0.25))``
    as ``'np.float64(0.25)'``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ParameterDomainError(f"bound parameter must be finite, got {x!r}")
    digits, _, exponent = repr(x).partition("e")
    whole, _, fraction = digits.partition(".")
    scale = (int(exponent) if exponent else 0) - len(fraction)
    n = int(whole + fraction)
    return (n * 10 ** scale, 1) if scale >= 0 else (n, 10 ** -scale)


def _ratio(x) -> Tuple[int, int]:
    """A bound parameter as a (numerator, denominator) pair of ints: a
    rational's own terms, a float's ``decimal_ratio``."""
    if isinstance(x, numbers.Rational):
        return int(x.numerator), int(x.denominator)
    return decimal_ratio(x)


def _int_root(n: int, q: int) -> Optional[int]:
    """The integer q-th root of ``n >= 1``, or None when ``n`` is no q-th power."""
    if n == 1:
        return 1
    if q >= n.bit_length():  # 1 < n^(1/q) < 2
        return None
    x = 1 << -(-n.bit_length() // q)  # above the root; Newton descends to it
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x if x ** q == n else None
        x = y


def _exact_floor(b: Fraction, e: Fraction, c0: Fraction, c1: Fraction, near: int) -> int:
    """floor((b^e - c0) / c1) for exact rationals; ``near`` estimates it.

    The argument is an integer n exactly when b^e = n c1 + c0, which needs a
    rational b^(1/q), for e = p/q in lowest terms, and is settled in
    integers.  Otherwise decimal brackets of rising precision narrow until
    they hold no integer.
    """
    import decimal

    p, q = e.numerator, e.denominator
    num, den = _int_root(b.numerator, q), _int_root(b.denominator, q)
    if p < 0:
        num, den = den, num
    rational = num is not None and den is not None

    def is_argument(n: int) -> bool:
        # b^e = (num/den)^|p| is in lowest terms: compare the |p|-th roots of
        # the target's numerator and denominator, never forming the power.
        target = n * c1 + c0
        return (
            rational
            and target > 0
            and _int_root(target.numerator, abs(p)) == num
            and _int_root(target.denominator, abs(p)) == den
        )

    if is_argument(near):
        return near
    # Each decimal operation is correctly rounded, within eps/2 relative; to
    # first order t misses e ln(b) by (|e| + 2|t|) eps and y misses the
    # argument by (|e| + 2|t| + 4) eps (b^e + |c0|) / c1.  The bracket
    # doubles that.
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            bd, ed, c0d, c1d = (
                decimal.Decimal(f.numerator) / f.denominator for f in (b, e, c0, c1)
            )
            t = ed * bd.ln()
            power = t.exp()
            y = (power - c0d) / c1d
            eps = decimal.Decimal(10) ** (1 - prec)
            err = 2 * eps * (abs(ed) + 2 * abs(t) + 4) * (power + abs(c0d)) / c1d
            lo, hi = (int((y + d).to_integral_value(decimal.ROUND_FLOOR)) for d in (-err, err))
        if lo == hi:
            return lo
        if hi == lo + 1 and is_argument(hi):
            return hi
        prec *= 2


def _power_floor(b: Tuple[int, int], k: int, r: Tuple[int, int],
                 c0: Tuple[int, int] = (0, 1), c1: Tuple[int, int] = (1, 1)) -> int:
    """floor((b^e - c0) / c1) with e = k / (1 - r), decided exactly; each
    of b, r, c0 and c1 is a (numerator, denominator) pair of ints, the
    denominator positive and the pair not necessarily in lowest terms.

    Needs b > 0, r != 1, c1 > 0 and b^e >= 1, as every bound here has.
    """
    # Each float is correctly rounded: int / int true division is.
    bf, rf, c0f, c1f = b[0] / b[1], r[0] / r[1], c0[0] / c0[1], c1[0] / c1[1]
    ef = k / (1.0 - rf)
    try:
        power = bf ** ef
    except OverflowError:  # float ** raises where * and / return inf
        power = math.inf
    y = (power - c0f) / c1f
    if not math.isfinite(y):
        raise ParameterDomainError(
            f"bound argument ({bf!r}^{ef!r} - {c0f!r}) / {c1f!r} overflows float64"
        )
    # Float shortcut.  bf, rf, c0f and c1f are each rounded once from the
    # exact values, so each is within _U of it, relative, and libm pow is
    # within one ulp (2 _U).  1 - rf then misses 1 - r by (|r| / |1 - r| + 1)
    # _U, relative: the exponent's sensitivity 1/|1 - r|.  So ef misses e by
    # (|r e / k| + 2) _U, ef ln(bf) misses e ln(b) by
    # (|e ln b| (|r e / k| + 2) + |e|) _U to first order, and power misses
    # b^e by that plus 2 _U, relative.  The subtraction and the division add
    # 4 _U (b^e + |c0|) / c1.  The margin doubles the sum, which also covers
    # rounding y -/+ margin.
    sensitivity = abs(rf * ef / k) + 2
    spread = abs(ef * math.log(bf)) * sensitivity + abs(ef) + 6
    margin = 2 * _U * spread * (power + abs(c0f)) / c1f
    hi = y + margin
    if hi < math.inf and math.floor(y - margin) == math.floor(hi):
        return math.floor(hi)
    # fractions and decimal load here, with the first floor the bracket
    # cannot decide: importing them takes about 2 ms of a fresh process.
    from fractions import Fraction

    b, r, c0, c1 = (Fraction(*x) for x in (b, r, c0, c1))
    return _exact_floor(b, k / (1 - r), c0, c1, round(y))


def phase1_floor(beta: Tuple[int, int], r2: Tuple[int, int]) -> int:
    """``phase1_bound`` of (numerator, denominator) pairs, their domain
    unchecked."""
    return _power_floor(beta, 1, r2, (1, 1), beta) + 1


def phase2_floor(alpha: Tuple[int, int], r1: Tuple[int, int]) -> int:
    """``phase2_bound`` of (numerator, denominator) pairs, their domain
    unchecked."""
    return _power_floor(alpha, -1, r1) + 1


def phase1_bound(beta: float | Fraction, r2: float | Fraction) -> int:
    """Step bound for driving the candidate level from above 1 down to 1.

    Each input is a float, standing for its shortest decimal, or an exact
    rational such as a Fraction or an int.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterDomainError(f"beta={beta!r} must lie in (0, 1)")
    if not r2 > 1.0:
        raise ParameterDomainError(f"r2={r2!r} must exceed 1")
    return phase1_floor(_ratio(beta), _ratio(r2))


def phase2_bound(alpha: float | Fraction, r1: float | Fraction) -> int:
    """Step bound for extinguishing a candidate level of at most 1.

    Each input is a float, standing for its shortest decimal, or an exact
    rational such as a Fraction or an int.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterDomainError(f"alpha={alpha!r} must lie in (0, 1)")
    if not 0.0 < r1 < 1.0:
        raise ParameterDomainError(f"r1={r1!r} must lie in (0, 1)")
    return phase2_floor(_ratio(alpha), _ratio(r1))


def settling_bound(gains: FixedTimeGains) -> int:
    """Combined fixed-time settling bound: phase1_bound + phase2_bound."""
    return phase1_bound(gains.beta, gains.r2) + phase2_bound(gains.alpha, gains.r1)


def gains_from_example(
    aprime: float, bprime: float, r1prime: float, r2prime: float
) -> FixedTimeGains:
    """The gain quadruple induced by the benchmark map's derivation.

    The quadratic candidate's difference is bounded by squared powers of
    |x|, which matches the decrement inequality for V = |x| with
    alpha = aprime^2, beta = bprime^2, r1 = 2 r1prime, r2 = 2 r2prime.
    alpha and beta are the correctly rounded squares of the decimals, so
    0.8 gives 0.64, where the float product 0.8 * 0.8 is 0.6400000000000001.
    """
    validate_example_params(aprime, bprime, r1prime, r2prime)
    (an, ad), (bn, bd) = decimal_ratio(aprime), decimal_ratio(bprime)
    return FixedTimeGains(
        alpha=an * an / (ad * ad),
        beta=bn * bn / (bd * bd),
        r1=2.0 * r1prime,
        r2=2.0 * r2prime,
    )


def example_bound(aprime: float, bprime: float, r1prime: float, r2prime: float) -> int:
    """Settling bound of the benchmark map in its native parameters.

    Algebraically equal to ``settling_bound(gains_from_example(...))``; kept
    as an independent evaluation route so the identity is a real check.
    """
    validate_example_params(aprime, bprime, r1prime, r2prime)
    a, b, (r1n, r1d), (r2n, r2d) = map(decimal_ratio, (aprime, bprime, r1prime, r2prime))
    b2 = (b[0] * b[0], b[1] * b[1])
    return _power_floor(a, -2, (2 * r1n, r1d)) + _power_floor(b, 2, (2 * r2n, r2d), (1, 1), b2) + 2


def check_level(level: float) -> float:
    """``level`` itself, or ParameterDomainError when it is negative or NaN."""
    if not level >= 0.0:
        raise ParameterDomainError(f"level must be nonnegative, got {level!r}")
    return level


def check_levels(levels) -> np.ndarray:
    """``levels`` as a float array, each checked by ``check_level`` in order."""
    return np.array([check_level(level) for level in levels], dtype=float)


def fold_entries(values: np.ndarray, levels: np.ndarray, k0: int = 0, indices=None):
    """Fold the values of indices k0, k0 + 1, ... into entry indices.

    ``values`` is (K, m), column j a stretch of sequence j.  Returns
    ``(last_out, first_in)``, two (m, len(levels)) integer arrays: per
    column and level, the last index whose value exceeds the level and the
    first whose value is <= it, -1 where there is none.  NaN is neither
    inside nor outside.  To fold chunk by chunk, pass the pair of the
    indices before k0 as ``indices``; it is updated in place and returned.
    """
    # Laid out (m, len(levels), K), so every reduction runs along memory.
    columns = values.T[:, None, :]
    outside = columns > levels[:, None]
    inside = columns <= levels[:, None]
    if indices is None:
        indices = (np.full(outside.shape[:2], -1), np.full(outside.shape[:2], -1))
    last_out, first_in = indices
    if len(values):  # argmax has nothing to reduce over an empty stretch
        last = k0 + len(values) - 1 - np.argmax(outside[:, :, ::-1], axis=2)
        np.copyto(last_out, last, where=outside.any(axis=2))
        np.copyto(first_in, k0 + np.argmax(inside, axis=2), where=inside.any(axis=2) & (first_in < 0))
    return indices


def entry_curves(levels: np.ndarray, last_out, first_in, final: int):
    """``(level, stay, first)`` for every level, per column of a fold that
    ended at index ``final``.

    ``stay``, the entry-and-stay index, is one past the last outside index
    (0 when none is), or None when the value at ``final`` is outside;
    ``first`` is the first inside index, or None.  Entry-and-stay matches
    equilibria that must be reached and kept, where an oscillating tail
    would make first entry report spuriously early settling.
    """
    stay = np.where(last_out == final, None, last_out + 1).tolist()
    first = np.where(first_in < 0, None, first_in).tolist()
    levels = levels.tolist()
    return tuple(tuple(zip(levels, s, f)) for s, f in zip(stay, first))


def entry_curve(values: np.ndarray, levels: Sequence[float]):
    """``entry_curves`` of one recorded sequence; a negative or NaN level raises."""
    levels = check_levels(levels)
    return entry_curves(levels, *fold_entries(values[:, None], levels), len(values) - 1)[0]


def entry_and_stay(values, level: float) -> Tuple[Optional[int], Optional[int]]:
    """``(stay, first)`` of a recorded value sequence for {v <= level}, see ``entry_curves``."""
    return entry_curve(values, (level,))[0][1:]


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
    return entry_curve(traj.norms(), epsilons)


@dataclass(frozen=True)
class SettlingReport(Record):
    """Bounds and (optionally) measured settling for one scenario."""

    bound_K_star: int = field(init=False)
    bound_K1: int
    bound_K2_gap: int
    epsilon_used: float
    empirical_settling: Optional[int] = None
    satisfied: bool = field(init=False)

    def __post_init__(self):
        k_star = self.bound_K1 + self.bound_K2_gap
        empirical = self.empirical_settling
        object.__setattr__(self, "bound_K_star", k_star)
        object.__setattr__(self, "satisfied", empirical is not None and empirical <= k_star)


def analyze_settling(
    gains: FixedTimeGains, traj: Optional[Trajectory] = None, epsilon: float = 0.0
) -> SettlingReport:
    """Evaluate all bounds for ``gains`` and measure settling of ``traj``."""
    return SettlingReport(
        bound_K1=phase1_bound(gains.beta, gains.r2),
        bound_K2_gap=phase2_bound(gains.alpha, gains.r1),
        epsilon_used=float(epsilon),
        empirical_settling=measure_settling(traj, epsilon) if traj is not None else None,
    )


@dataclass(frozen=True)
class QSequence:
    """Normalized representation q_k = V_k * beta^(-1/(r2-1)) of a level run.

    For any sequence with all levels above 1 and the superlinear decrement
    holding between consecutive entries, every q_k must lie strictly inside
    (lower, upper) = (beta^(1/(1-r2)), beta^(2/(1-r2))).  The bounds and
    ``out_of_bounds``, the indices where that fails, are derived from
    ``q``, ``beta`` and ``r2``; ``out_of_bounds`` stays empty for any
    sequence realizable by a nonnegative candidate.  Bounds that overflow
    float64 or are not ordered raise ``ParameterDomainError``.
    """

    q: Tuple[float, ...]
    beta: float
    r2: float
    lower: float = field(init=False)
    upper: float = field(init=False)
    out_of_bounds: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        try:
            lower = self.beta ** (1.0 / (1.0 - self.r2))
            upper = self.beta ** (2.0 / (1.0 - self.r2))
        except OverflowError:
            raise _q_overflow(self.beta, self.r2) from None
        if not lower < upper:
            raise ParameterDomainError("q bounds must satisfy lower < upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        out = tuple(k for k, qk in enumerate(self.q) if not lower < qk < upper)
        object.__setattr__(self, "out_of_bounds", out)


def _q_overflow(beta: float, r2: float) -> ParameterDomainError:
    # float ** raises OverflowError where * and / return inf.
    return ParameterDomainError(f"q-sequence powers overflow float64 (beta={beta!r}, r2={r2!r})")


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
    try:
        # Tiny relative slack so sequences generated with the exact decrement
        # do not get rejected over last-bit rounding.
        for k in range(len(vs) - 1):
            allowed = vs[k] - beta * vs[k] ** r2
            if vs[k + 1] > allowed + 1e-12 * max(1.0, abs(allowed)):
                raise LemmaPreconditionError(
                    f"levels at indices {k}->{k + 1} violate the superlinear "
                    f"decrement ({vs[k + 1]!r} > {allowed!r})",
                    index=k + 1,
                )
        scale = beta ** (-1.0 / (r2 - 1.0))
    except OverflowError:
        raise _q_overflow(beta, r2) from None
    return QSequence(q=tuple(v * scale for v in vs), beta=beta, r2=r2)


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
