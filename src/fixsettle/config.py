"""Scenario configuration: a versioned, declarative JSON schema.

A scenario names a system, an optional Lyapunov candidate (or a mixed
pair), gains, an optional perturbation source, and analysis parameters.
Validation reuses the domain constructors, so every admissibility rule is
enforced once, with messages naming the violated condition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
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
    norm,
    radial_perturbation,
    uniform_ball_perturbation,
)

SCHEMA_VERSION = 1

# The keys each section may hold; ``_section`` rejects any other.
_KEYS = {
    "config root": "schema system lyapunov gains perturbation m1 m2 analysis output",
    "system": "builtin case params affine",
    "system.params": "aprime bprime r1prime r2prime",
    "system.affine": "matrix offset",
    "lyapunov": "form lipschitz coefficients rhs",
    "lyapunov.rhs": "form lipschitz coefficients",
    "gains": "alpha beta r1 r2",
    "perturbation": "delta0 generator seed vector",
    "analysis": "x0 k_max stop_epsilon epsilon epsilon_list grid tolerance m_values branch case_id",
    "analysis.grid": "scale low high points signed",
    "output": "filename",
}


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


def _section(value, key: str) -> dict:
    """A JSON object holding only the ``_KEYS`` of ``key``, or ConfigurationError."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be a JSON object, got {value!r}")
    allowed = _KEYS[key].split()
    for name in value:
        if name not in allowed:
            raise ConfigurationError(
                f"{key}: unknown key {name!r}; allowed keys are {', '.join(allowed)}"
            )
    return value


def _number(value, key: str) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(values, key: str, number=_number) -> tuple:
    """A JSON array of numbers as a tuple of floats, each read by ``number``."""
    if not isinstance(values, list):
        raise ConfigurationError(f"{key} must be an array of numbers, got {values!r}")
    return tuple(number(v, f"{key}[{i}]") for i, v in enumerate(values))


def _vector(value, key: str, dimension: int, number=_number) -> tuple:
    """A state-sized JSON array of numbers, each read by ``number``; a lone
    number counts as an array of one."""
    values = _numbers(value, key, number) if isinstance(value, list) else (number(value, key),)
    if len(values) != dimension:
        raise ConfigurationError(
            f"{key} has shape ({len(values)},), expected a vector of length {dimension}"
        )
    return values


def _finite(value, key: str) -> float:
    """A JSON number that is neither NaN nor infinite: an initial state or
    grid end that is not finite would only be reported as a divergence, and
    a scan tolerance would pass every point (inf) or flag every one (NaN)."""
    x = _number(value, key)
    if not math.isfinite(x):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    return x


def _level(value, key: str) -> float:
    """A JSON number at or above 0, NaN excluded: a level of V or of ||x||."""
    x = _number(value, key)
    if not x >= 0.0:
        raise ConfigurationError(f"{key} must be a nonnegative number, got {value!r}")
    return x


def _slack(value, key: str) -> float:
    """A slack constant m: finite and above 1, or the slackened gain
    (1 - 1/m) times alpha or beta is not positive or its bound not finite."""
    m = _number(value, key)
    if not (math.isfinite(m) and m > 1.0):
        raise ConfigurationError(f"{key} must be a finite number above 1, got {value!r}")
    return m


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
            p = _section(_require(d, "params", "system"), "system.params")
            params = tuple(
                _number(_require(p, k, "system.params"), f"system.params.{k}")
                for k in ("aprime", "bprime", "r1prime", "r2prime")
            )
        return example_system(*params), params
    if "affine" in d:
        a = _section(d["affine"], "system.affine")
        return (
            affine_system(_require(a, "matrix", "system.affine"), a.get("offset")),
            None,
        )
    raise ConfigurationError("system must specify 'builtin' or 'affine'")


def _build_candidate(d: dict, dimension: int, where: str) -> LyapunovCandidate:
    form = _require(d, "form", where)
    raw = d.get("lipschitz")
    lipschitz = None
    if raw is not None:
        key = f"{where}.lipschitz"
        lipschitz = _number(raw, key)
        if not (math.isfinite(lipschitz) and lipschitz > 0.0):
            raise ConfigurationError(f"{key} must be a finite positive number, got {raw!r}")
    if form == "abs":
        return abs_candidate(dimension, lipschitz if lipschitz is not None else 1.0)
    if form == "square":
        return square_candidate(dimension, lipschitz)
    if form == "poly":
        return polynomial_candidate(
            _numbers(_require(d, "coefficients", where), f"{where}.coefficients"),
            dimension,
            lipschitz,
        )
    raise ConfigurationError(f"unknown {where} form {form!r}; use abs|square|poly")


def _build_perturbation(d: dict, dimension: int, seed_override: Optional[int]) -> PerturbationSpec:
    delta0 = _number(_require(d, "delta0", "perturbation"), "perturbation.delta0")
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
        vector = np.array(
            _vector(_require(d, "vector", "perturbation"), "perturbation.vector", dimension)
        )
        spec = constant_perturbation(vector, delta0)
        # Checked here, not only at the first step, so commands that never
        # step the perturbed map reject the scenario too.  NaN fails it.
        size = norm(vector)
        if size != 0.0 and not size < delta0:
            raise ConfigurationError(
                f"perturbation.vector has norm {size:.6g}, "
                f"which is not strictly below delta0={delta0:.6g}"
            )
        return spec
    raise ConfigurationError(
        f"unknown perturbation generator {generator!r}; "
        "use uniform_ball|radial|constant"
    )


def _build_grid(d: dict) -> GridSpec:
    scale = d.get("scale", "log")
    if scale not in ("log", "linear"):
        raise ConfigurationError(f"grid.scale must be log|linear, got {scale!r}")
    low = _finite(_require(d, "low", "grid"), "grid.low")
    high = _finite(_require(d, "high", "grid"), "grid.high")
    points = _integer(_require(d, "points", "grid"), "grid.points")
    if points < 1:
        raise ConfigurationError("grid.points must be positive")
    if not low < high:
        raise ConfigurationError("grid.low must be below grid.high")
    if scale == "log" and low <= 0:
        raise ConfigurationError("log grid needs a positive low endpoint")
    signed = d.get("signed", False)
    if not isinstance(signed, bool):
        raise ConfigurationError(f"grid.signed must be true or false, got {signed!r}")
    return GridSpec(scale, low, high, points, signed)


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ScenarioConfig:
    """Validate a raw config dict and build the domain objects it names."""
    _section(raw, "config root")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(
            f"config schema must be {SCHEMA_VERSION}, got {schema!r}"
        )
    try:
        system, example_params = _build_system(
            _section(_require(raw, "system", "config"), "system")
        )
        dim = system.dimension

        lyap = lyap_rhs = None
        if "lyapunov" in raw:
            lyap_raw = _section(raw["lyapunov"], "lyapunov")
            lyap = _build_candidate(lyap_raw, dim, "lyapunov")
            if "rhs" in lyap_raw:
                lyap_rhs = _build_candidate(
                    _section(lyap_raw["rhs"], "lyapunov.rhs"), dim, "lyapunov.rhs"
                )

        gains = None
        if "gains" in raw:
            g = _section(raw["gains"], "gains")
            gains = FixedTimeGains(
                *(
                    _number(_require(g, k, "gains"), f"gains.{k}")
                    for k in ("alpha", "beta", "r1", "r2")
                )
            )

        pert = None
        if "perturbation" in raw:
            pert = _build_perturbation(
                _section(raw["perturbation"], "perturbation"), dim, seed_override
            )

        a = _section(raw.get("analysis", {}), "analysis")
        x0 = a.get("x0")
        if x0 is not None:
            x0 = list(_vector(x0, "analysis.x0", dim, _finite))
        branch = a.get("branch", "auto")
        if branch not in ("auto", "V0_GT_1", "V0_LE_1"):
            raise ConfigurationError(
                f"analysis.branch must be auto|V0_GT_1|V0_LE_1, got {branch!r}"
            )
        case_id = a.get("case_id", "")
        if not isinstance(case_id, str):
            raise ConfigurationError(f"analysis.case_id must be a string, got {case_id!r}")
        analysis = AnalysisParams(
            x0=x0,
            k_max=None if a.get("k_max") is None else _integer(a["k_max"], "analysis.k_max"),
            stop_epsilon=(
                None
                if a.get("stop_epsilon") is None
                else _level(a["stop_epsilon"], "analysis.stop_epsilon")
            ),
            epsilon=_level(a.get("epsilon", 1.0), "analysis.epsilon"),
            epsilon_list=(
                _numbers(a["epsilon_list"], "analysis.epsilon_list", _level)
                if "epsilon_list" in a
                else DEFAULT_EPSILONS
            ),
            grid=_build_grid(_section(a["grid"], "analysis.grid")) if "grid" in a else None,
            tolerance=_finite(a.get("tolerance", DEFAULT_TOLERANCE), "analysis.tolerance"),
            m_values=_numbers(a.get("m_values", []), "analysis.m_values", _slack),
            branch=branch,
            case_id=case_id,
        )
        if analysis.k_max is not None and analysis.k_max < 1:
            raise ConfigurationError("analysis.k_max must be at least 1")

        output = _section(raw.get("output", {}), "output")
        name = output.get("filename")
        if name is not None and (
            not isinstance(name, str) or name in ("", "..") or Path(name).name != name
        ):
            raise ConfigurationError(
                f"output.filename must name a plain file inside --out, got {name!r}"
            )
        return ScenarioConfig(
            system=system,
            lyapunov=lyap,
            lyapunov_rhs=lyap_rhs,
            gains=gains,
            perturbation=pert,
            example_params=example_params,
            m1=_slack(raw.get("m1", 2.0), "m1"),
            m2=_slack(raw.get("m2", 2.0), "m2"),
            analysis=analysis,
            output_name=name,
        )
    except ConfigurationError:
        raise
    except FixsettleError as err:
        # Domain constructors raise with condition-specific messages.
        raise ConfigurationError(str(err)) from err
    except (KeyError, TypeError, ValueError, OverflowError) as err:
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
