"""Workload generation: schema-1 scenario files, the CLI argv of every
operation, and the reference each operation's output is checked against.

All inputs come from the benchmark's own generator seeded with
``--seed``; the program only sees the scenario files.  The fixed
low-level scenarios of ``perturbed`` are the one exception: they do not
depend on the seed, because their ``bound`` operations are expected to fail
(see ``checks.check_bound``) and the failed share must be the same in every
run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import checks
import reference as ref

WORKLOADS = ("sweep", "certify", "perturbed")

# x0 count per benchmark case; orbits run for bound + 50 steps, so case 4
# (7865 steps per orbit) costs about as much as the other three together.
SWEEP_POINTS = {1: 101, 2: 101, 3: 25, 4: 7}
SWEEP_LOW = 2.0

CERTIFY_POINTS = 5000          # per sign: 10^4 grid points per scan
CERTIFY_TOLERANCE = 1e-12
CONTRACTION_GAINS = (Q("0.01"), Q("0.001"), Q("0.5"), Q(2))
CONTRACTION_STEPS = 300

PERTURBED_STEPS = 200
LIPSCHITZ_POINTS = 120
M_CHOICES = ("1.5", "2", "3", "4")
M_VALUES = (1.25, 1.5, 2.0, 3.0, 4.0, 8.0)
# (case, x0, delta0, generator, perturbation seed): V(x0) <= 1, seed-independent.
LOW_SCENARIOS = (
    (1, 0.5, "0.05", "uniform_ball", 7),
    (2, -0.8, "0.03", "radial", 0),
    (3, 0.3, "0.05", "uniform_ball", 11),
    (4, -0.9, "0.02", "radial", 0),
)


@dataclass
class Op:
    argv: List[str]
    check: Callable[[], None]
    config: Optional[Path] = None


@dataclass
class Plan:
    work: Path
    configs: Dict[Path, dict] = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)

    @property
    def out(self) -> Path:
        return self.work / "out"

    def add_config(self, stem: str, config: dict) -> Path:
        path = self.work / "scenarios" / f"{stem}.json"
        self.configs[path] = config
        return path

    def add_op(self, command: str, config, out: Path, check):
        argv = [command] + ([] if config is None else ["--config", str(config)]) + ["--out", str(out)]
        self.ops.append(Op(argv, check, config))

    def write(self):
        for path, config in self.configs.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        self.out.mkdir(parents=True, exist_ok=True)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _gains_json(gains) -> dict:
    return dict(zip(("alpha", "beta", "r1", "r2"), (float(g) for g in gains)))


def _example(case: int) -> dict:
    return {"builtin": "example", "case": case}


# -- sweep ----------------------------------------------------------------------


def sweep_reference(case: int, x0s: np.ndarray) -> checks.SweepRef:
    bound = ref.example_bound(case)
    stay, rows = [], []
    for x0 in x0s:
        norms = [abs(x) for x in ref.example_orbit(case, float(x0), bound + 50)]
        stay.append(ref.banded(ref.stay_index, norms, 1.0))
        rows.append(ref.settling_rows(norms))
    return checks.SweepRef(f"case{case}", bound, 1.0, x0s, stay, rows)


def table1_reference() -> checks.Table1Ref:
    exact = [ref.example_bound(c) for c in (1, 2, 3, 4)]
    rows = []
    for c, bound in zip((1, 2, 3, 4), exact):
        norms = [abs(x) for x in ref.example_orbit(c, ref.TABLE1_X0, bound + 100)]
        rows.append(ref.settling_rows(norms))
    return checks.Table1Ref(
        params=[ref.case_floats(c) for c in (1, 2, 3, 4)],
        exact=exact,
        published=[case[4] for case in ref.CASES],
        atc=[case[5] for case in ref.CASES],
        x0=ref.TABLE1_X0,
        rows=rows,
    )


def build_sweep(seed: int, work: Path, points=SWEEP_POINTS) -> Plan:
    """``sweep`` over log-spaced x0 in [2, cap] for each case, plus ``table1``.

    cap is half the case's divergence threshold; the seed shifts the grid
    inside [2, cap] by up to one grid step.
    """
    plan = Plan(work)
    rng = _rng("sweep", seed)
    for case, n in points.items():
        cap = min(ref.divergence_cap(case), 1e6)
        span = cap / SWEEP_LOW
        u = float(rng.random())
        low, high = SWEEP_LOW * span ** (u / n), cap * span ** (-(1.0 - u) / n)
        config = plan.add_config(f"sweep-case{case}", {
            "schema": 1,
            "system": _example(case),
            "analysis": {
                "grid": {"scale": "log", "low": low, "high": high, "points": n},
                "epsilon": 1.0,
                "case_id": f"case{case}",
            },
        })
        out = plan.out / f"sweep-case{case}"
        sweep_ref = sweep_reference(case, ref.log_grid(low, high, n))
        plan.add_op("sweep", config, out, partial(checks.check_sweep, out, sweep_ref))
    out = plan.out / "table1"
    plan.add_op("table1", None, out, partial(checks.check_table1, out, table1_reference()))
    return plan


# -- certify ------------------------------------------------------------------------


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """An orthogonal 3 x 3 matrix from the QR factorization of a normal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def build_certify(seed: int, work: Path, points: int = CERTIFY_POINTS,
                  cases=(1, 2, 3, 4), orbit_scans: int = 2) -> Plan:
    """``check`` of the mixed form and of the perturbed decrement on signed
    log grids, and of the decrement along orbits of a 3-D contraction."""
    plan = Plan(work)
    rng = _rng("certify", seed)
    tol = CERTIFY_TOLERANCE
    for case in cases:
        low, high = 10.0 ** (-3.0 + 0.2 * rng.random()), 10.0 ** (4.0 - 0.2 * rng.random())
        grid_spec = {"scale": "log", "low": low, "high": high, "points": points, "signed": True}
        xs = ref.log_grid(low, high, points, signed=True)
        gains = _gains_json(ref.example_gains(case))

        config = plan.add_config(f"mixed-case{case}", {
            "schema": 1,
            "system": _example(case),
            "lyapunov": {"form": "square", "rhs": {"form": "abs"}},
            "gains": gains,
            "analysis": {"grid": grid_spec, "tolerance": tol},
        })
        out = plan.out / f"mixed-case{case}"
        scan = checks.ScanRef("FT_MIXED", tol, *ref.mixed_reference(case, xs, tol), grid=xs)
        plan.add_op("check", config, out, partial(checks.check_scan, out, scan))

        delta0 = float(rng.uniform(0.01, 0.1))
        generator = "radial" if case % 2 else "uniform_ball"
        config = plan.add_config(f"perturbed-case{case}", {
            "schema": 1,
            "system": _example(case),
            "lyapunov": {"form": "abs"},
            "gains": gains,
            "perturbation": {"delta0": delta0, "generator": generator, "seed": int(rng.integers(1 << 31))},
            "analysis": {"grid": grid_spec, "tolerance": tol},
        })
        out = plan.out / f"perturbed-case{case}"
        scan = checks.ScanRef("PERTURBED_DECREMENT", tol, *ref.perturbed_reference(case, xs, delta0, tol), grid=xs)
        plan.add_op("check", config, out, partial(checks.check_scan, out, scan))

    for i in range(orbit_scans):
        rho = float(rng.uniform(0.89, 0.92))
        x0 = rng.standard_normal(3)
        x0 *= float(np.exp(rng.uniform(np.log(300.0), np.log(3000.0)))) / np.linalg.norm(x0)
        matrix = rho * random_rotation(rng)
        config = plan.add_config(f"contraction-{i}", {
            "schema": 1,
            "system": {"affine": {"matrix": matrix.tolist(), "offset": [0.0, 0.0, 0.0]}},
            "lyapunov": {"form": "abs"},
            "gains": _gains_json(CONTRACTION_GAINS),
            "analysis": {"x0": x0.tolist(), "k_max": CONTRACTION_STEPS, "tolerance": tol},
        })
        out = plan.out / f"contraction-{i}"
        violating, ambiguous, residual, scale = ref.contraction_reference(
            rho, float(np.linalg.norm(x0)), CONTRACTION_STEPS, CONTRACTION_GAINS, tol)
        # The two radii alone decide every violation only while the residual
        # stays far above the tolerance.  It is about alpha * sqrt(||x_k||),
        # and the last state checked is at least 300 * 0.89^299 ~ 2.2e-13,
        # so the residual is at least ~4.7e-9 for every draw.
        assert residual[-1] > 1e3 * tol, "contraction orbit ends too close to the origin"
        scan = checks.ScanRef("FT_DECREMENT", tol, violating, ambiguous, residual, scale)
        plan.add_op("check", config, out, partial(checks.check_scan, out, scan))
    return plan


# -- perturbed ------------------------------------------------------------------------


def _scenario(plan: Plan, stem: str, case: int, x0: float, delta0: str, generator: str,
              pseed: int, m1: str, m2: str, square_grid=None):
    """One attract / bound / simulate triple on the same perturbed orbit."""
    gains = ref.example_gains(case)
    lyapunov = {"form": "square"} if square_grid else {"form": "abs"}
    analysis = {"x0": x0, "k_max": PERTURBED_STEPS, "m_values": list(M_VALUES), "branch": "auto"}
    if square_grid:
        analysis["grid"] = {"scale": "log", "low": square_grid[0], "high": square_grid[1],
                            "points": LIPSCHITZ_POINTS}
    config = plan.add_config(stem, {
        "schema": 1,
        "system": _example(case),
        "lyapunov": lyapunov,
        "gains": _gains_json(gains),
        "perturbation": {"delta0": float(delta0), "generator": generator, "seed": pseed},
        "m1": float(m1),
        "m2": float(m2),
        "analysis": analysis,
    })
    out = plan.out / stem

    states = ref.example_orbit(case, x0, PERTURBED_STEPS,
                               ref.perturbation_fn(generator, float(delta0), pseed))
    values = [x * x for x in states] if square_grid else [abs(x) for x in states]
    if square_grid:
        xs = ref.log_grid(square_grid[0], square_grid[1], LIPSCHITZ_POINTS)
        lv = float(xs[-1]) + float(xs[-2])
    else:
        lv = 1.0
    high = values[0] > 1.0
    m = Q(m1) if high else Q(m2)
    alpha, beta = gains[0], gains[1]
    attract_ref = checks.AttractRef(
        branch="V0_GT_1" if high else "V0_LE_1",
        B=ref.attractive_level(gains, high, m, lv, float(delta0)),
        K_star=ref.perturbed_bound(gains, high, m),
        gain_d=float(ref.slackened(beta if high else alpha, m)),
        lv_source="estimated" if square_grid else "user",
        lvd=float(m) * lv * float(delta0),
        values=values,
        tradeoff=[(mv, ref.attractive_level(gains, high, Q(mv), lv, float(delta0)),
                   ref.perturbed_bound(gains, high, Q(mv))) for mv in M_VALUES],
    )
    bound_ref = checks.BoundRef(
        K_star=ref.settling_bound(*gains),
        K1=ref.phase1(gains[1], gains[3]),
        K2=ref.phase2(gains[0], gains[2]),
        example_K_star=ref.example_bound(case),
        perturbed=not square_grid,
        perturbed_K_star=attract_ref.K_star,
        auto_K_star=ref.perturbed_bound(gains, True, Q(m1)),
    )
    plan.add_op("attract", config, out, partial(checks.check_attract, out, attract_ref))
    plan.add_op("bound", config, out, partial(checks.check_bound, out, bound_ref))
    plan.add_op("simulate", config, out, partial(
        checks.check_simulate, out, checks.SimulateRef(states, float(delta0), bool(square_grid))))


def build_perturbed(seed: int, work: Path, n_abs: int = 10, n_square: int = 4, low: bool = True) -> Plan:
    """Monte-Carlo attractiveness scenarios over (case, x0, seed, generator).

    ``n_abs`` use V = |x| (L_V = 1) from x0 above 1; ``n_square`` use
    V = x^2 with L_V estimated on a positive log grid; the fixed
    ``LOW_SCENARIOS`` start at V(x0) <= 1.
    """
    plan = Plan(work)
    rng = _rng("perturbed", seed)
    for i in range(n_abs + n_square):
        square = i >= n_abs
        case = 1 + i % 4
        top = min(ref.divergence_cap(case), 50.0 if square else 5000.0)
        x0 = float(np.exp(rng.uniform(math.log(1.5), math.log(top)))) * (1 if rng.random() < 0.5 else -1)
        delta0 = f"{rng.uniform(0.01, 0.1):.4f}"
        generator = ("uniform_ball", "radial")[(i // 4) % 2]
        grid = (0.01, abs(x0) * float(rng.uniform(2.0, 4.0))) if square else None
        _scenario(plan, f"{'square' if square else 'abs'}-{i}", case, x0, delta0, generator,
                  int(rng.integers(1 << 31)), str(rng.choice(M_CHOICES)), str(rng.choice(M_CHOICES)), grid)
    if low:
        for j, (case, x0, delta0, generator, pseed) in enumerate(LOW_SCENARIOS):
            _scenario(plan, f"low-{j}", case, x0, delta0, generator, pseed, "2", "2")
    return plan


def build(name: str, seed: int, work: Path) -> Plan:
    return {"sweep": build_sweep, "certify": build_certify, "perturbed": build_perturbed}[name](seed, work)
