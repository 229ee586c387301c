"""Scenario configuration: a versioned, declarative JSON schema.

A scenario names a system, an optional Lyapunov candidate (or a mixed
pair), gains, an optional perturbation source, and analysis parameters.
Validation reuses the domain constructors, so every admissibility rule is
enforced once, with messages naming the violated condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, FixsettleError, ParameterDomainError
from .lyapunov import (
    DEFAULT_TOLERANCE,
    FixedTimeGains,
    LyapunovCandidate,
    abs_candidate,
    polynomial_candidate,
    square_candidate,
)
from .oracle import DEFAULT_EPSILONS, TABLE1_CASES
from .systems import (
    PerturbationSpec,
    SystemMap,
    affine_system,
    constant_perturbation,
    example_system,
    radial_perturbation,
    uniform_ball_perturbation,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    scale: str
    low: float
    high: float
    points: int
    signed: bool = False

    def materialize(self) -> np.ndarray:
        if self.scale == "log":
            xs = np.logspace(np.log10(self.low), np.log10(self.high), self.points)
        else:
            xs = np.linspace(self.low, self.high, self.points)
        if self.signed:
            xs = np.concatenate([-xs[::-1], xs])
        return xs


@dataclass(frozen=True)
class AnalysisParams:
    x0: Optional[Sequence[float]] = None
    k_max: Optional[int] = None
    stop_epsilon: Optional[float] = None
    epsilon: float = 1.0
    epsilon_list: Sequence[float] = DEFAULT_EPSILONS
    grid: Optional[GridSpec] = None
    tolerance: float = DEFAULT_TOLERANCE
    m_values: Sequence[float] = ()
    branch: str = "auto"
    case_id: str = ""


@dataclass(frozen=True)
class ScenarioConfig:
    system: SystemMap
    lyapunov: Optional[LyapunovCandidate] = None
    lyapunov_rhs: Optional[LyapunovCandidate] = None
    gains: Optional[FixedTimeGains] = None
    perturbation: Optional[PerturbationSpec] = None
    example_params: Optional[tuple] = None
    m1: float = 2.0
    m2: float = 2.0
    analysis: AnalysisParams = field(default_factory=AnalysisParams)
    output_name: Optional[str] = None


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigurationError(f"{where}: missing required key '{key}'")
    return d[key]


def _integer(value, key: str) -> int:
    """A JSON integer, or a number with an integral value such as 400.0."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _build_system(d: dict) -> tuple:
    if "builtin" in d:
        if d["builtin"] != "example":
            raise ConfigurationError(f"unknown builtin system {d['builtin']!r}")
        if "case" in d:
            idx = _integer(d["case"], "system.case") - 1
            if not 0 <= idx < len(TABLE1_CASES):
                raise ConfigurationError(
                    f"system.case must be 1..{len(TABLE1_CASES)}, got {d['case']!r}"
                )
            params = TABLE1_CASES[idx].params()
        else:
            p = _require(d, "params", "system")
            params = tuple(
                float(_require(p, k, "system.params"))
                for k in ("aprime", "bprime", "r1prime", "r2prime")
            )
        return example_system(*params), params
    if "affine" in d:
        a = d["affine"]
        return (
            affine_system(_require(a, "matrix", "system.affine"), a.get("offset")),
            None,
        )
    raise ConfigurationError("system must specify 'builtin' or 'affine'")


def _build_candidate(d: dict, dimension: int) -> LyapunovCandidate:
    form = _require(d, "form", "lyapunov")
    lipschitz = d.get("lipschitz")
    if form == "abs":
        return abs_candidate(dimension, lipschitz if lipschitz is not None else 1.0)
    if form == "square":
        return square_candidate(dimension, lipschitz)
    if form == "poly":
        return polynomial_candidate(
            _require(d, "coefficients", "lyapunov"), dimension, lipschitz
        )
    raise ConfigurationError(f"unknown lyapunov form {form!r}; use abs|square|poly")


def _build_perturbation(d: dict, dimension: int, seed_override: Optional[int]) -> PerturbationSpec:
    delta0 = float(_require(d, "delta0", "perturbation"))
    generator = d.get("generator", "uniform_ball")
    seed = _integer(d.get("seed", 0), "perturbation.seed")
    if seed_override is not None:
        seed = seed_override
    # Only uniform_ball draws from the seed; every generator rejects a bad one.
    if seed < 0:
        raise ParameterDomainError("seed must be a nonnegative integer")
    if generator == "uniform_ball":
        return uniform_ball_perturbation(delta0, dimension, seed)
    if generator == "radial":
        return radial_perturbation(delta0, dimension)
    if generator == "constant":
        vector = np.atleast_1d(np.asarray(_require(d, "vector", "perturbation"), dtype=float))
        if vector.shape != (dimension,):
            raise ConfigurationError(
                f"perturbation.vector has shape {vector.shape}, "
                f"expected a vector of length {dimension}"
            )
        return constant_perturbation(vector, delta0)
    raise ConfigurationError(
        f"unknown perturbation generator {generator!r}; "
        "use uniform_ball|radial|constant"
    )


def _build_grid(d: dict) -> GridSpec:
    scale = d.get("scale", "log")
    if scale not in ("log", "linear"):
        raise ConfigurationError(f"grid.scale must be log|linear, got {scale!r}")
    low = float(_require(d, "low", "grid"))
    high = float(_require(d, "high", "grid"))
    points = _integer(_require(d, "points", "grid"), "grid.points")
    if points < 1:
        raise ConfigurationError("grid.points must be positive")
    if not low < high:
        raise ConfigurationError("grid.low must be below grid.high")
    if scale == "log" and low <= 0:
        raise ConfigurationError("log grid needs a positive low endpoint")
    return GridSpec(scale, low, high, points, bool(d.get("signed", False)))


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ScenarioConfig:
    """Validate a raw config dict and build the domain objects it names."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(
            f"config schema must be {SCHEMA_VERSION}, got {schema!r}"
        )
    try:
        system, example_params = _build_system(_require(raw, "system", "config"))
        dim = system.dimension

        lyap = lyap_rhs = None
        if "lyapunov" in raw:
            lyap = _build_candidate(raw["lyapunov"], dim)
            if "rhs" in raw["lyapunov"]:
                lyap_rhs = _build_candidate(raw["lyapunov"]["rhs"], dim)

        gains = None
        if "gains" in raw:
            g = raw["gains"]
            gains = FixedTimeGains(
                alpha=float(_require(g, "alpha", "gains")),
                beta=float(_require(g, "beta", "gains")),
                r1=float(_require(g, "r1", "gains")),
                r2=float(_require(g, "r2", "gains")),
            )

        pert = None
        if "perturbation" in raw:
            pert = _build_perturbation(raw["perturbation"], dim, seed_override)

        a = raw.get("analysis", {})
        x0 = a.get("x0")
        if x0 is not None:
            x0 = [float(v) for v in np.atleast_1d(x0)]
        branch = a.get("branch", "auto")
        if branch not in ("auto", "V0_GT_1", "V0_LE_1"):
            raise ConfigurationError(
                f"analysis.branch must be auto|V0_GT_1|V0_LE_1, got {branch!r}"
            )
        analysis = AnalysisParams(
            x0=x0,
            k_max=None if a.get("k_max") is None else _integer(a["k_max"], "analysis.k_max"),
            stop_epsilon=(
                None if a.get("stop_epsilon") is None else float(a["stop_epsilon"])
            ),
            epsilon=float(a.get("epsilon", 1.0)),
            epsilon_list=tuple(float(e) for e in a.get("epsilon_list", DEFAULT_EPSILONS)),
            grid=_build_grid(a["grid"]) if "grid" in a else None,
            tolerance=float(a.get("tolerance", DEFAULT_TOLERANCE)),
            m_values=tuple(float(m) for m in a.get("m_values", ())),
            branch=branch,
            case_id=str(a.get("case_id", "")),
        )
        if analysis.k_max is not None and analysis.k_max < 1:
            raise ConfigurationError("analysis.k_max must be at least 1")

        output = raw.get("output", {})
        return ScenarioConfig(
            system=system,
            lyapunov=lyap,
            lyapunov_rhs=lyap_rhs,
            gains=gains,
            perturbation=pert,
            example_params=example_params,
            m1=float(raw.get("m1", 2.0)),
            m2=float(raw.get("m2", 2.0)),
            analysis=analysis,
            output_name=output.get("filename"),
        )
    except ConfigurationError:
        raise
    except FixsettleError as err:
        # Domain constructors raise with condition-specific messages.
        raise ConfigurationError(str(err)) from err
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(f"malformed config: {err}") from err


def load_config(path, seed_override: Optional[int] = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config {path} is not valid JSON: {err}") from err
    return parse_config(raw, seed_override)
