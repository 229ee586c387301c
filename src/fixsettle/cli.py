"""Command-line front end.

Subcommands: simulate | check | bound | attract | sweep | table1, each with
``--out DIR`` and, except table1, ``--config PATH``.  ``--seed N`` (simulate,
check, attract: the ones that draw perturbations) overrides the perturbation
seed; ``--format csv|json`` picks one of table1's outputs.  ``branch: auto``
resolves from V(x0) in both bound and attract.
Outputs are CSV (17 significant digits, '.' decimal) and JSON (sorted
keys), both byte-stable across runs for a fixed config and seed.  Exit
codes: 0 success, 2 config or parameter error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ScenarioConfig, load_config
from .errors import ConfigurationError, FixsettleError, SimulationDivergedError
from .lyapunov import (
    ConditionReport,
    abs_candidate,
    estimate_lipschitz,
    scan_conditions,
    scan_trajectory,
)
from .oracle import sweep_settling, table1_reproduce
from .perturbation import (
    AttractivenessConfig,
    analyze_attractiveness,
    choose_branch,
    perturbed_settling_bound,
    remark_tradeoff_table,
)
from .settling import example_bound, phase1_bound, phase2_bound, settling_bound
from .systems import as_state_grid, simulate, simulate_perturbed


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


@contextmanager
def _writing(path: Path, newline=None):
    """``path`` opened for writing; an ``OSError`` becomes a ``FixsettleError``
    that names the path."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except OSError as err:
        raise FixsettleError(f"cannot write {path}: {err.strerror or err}") from err


def _csv_column(col) -> list:
    """Every value of ``col`` as ``_fmt`` writes it; a float array in one pass."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return list(map("{:.17g}".format, col.tolist()))
    return list(map(_fmt, col))


def _write_csv(path: Path, header, columns):
    """Write ``header`` and the rows that ``columns`` make side by side."""
    cols = [_csv_column(col) for col in columns]
    with _writing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cols))


def _write_json(path: Path, obj):
    """Write ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline.

    A ``ConditionReport`` is written as its ``to_dict()`` would be, byte for
    byte, but from its columns: the rest of the report goes through
    ``json.dumps`` with an empty violation list, which sorts last, and the
    records are spliced in there, a chunk at a time.
    """
    with _writing(path) as fh:
        if not isinstance(obj, ConditionReport):
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
            return
        text = json.dumps(
            {**obj.to_dict(violations=False), "violations": []}, indent=2, sort_keys=True
        )
        if not len(obj.check):
            fh.write(text + "\n")
            return
        fh.write(text[: -len("]\n}")] + "\n")
        fh.writelines(_violation_chunks(obj))
        fh.write("\n  ]\n}\n")


_CHUNK = 1024  # violation records per write


def _json_floats(values: np.ndarray) -> list:
    """The text ``json`` writes for each float: its repr, or NaN/Infinity/-Infinity."""
    floats = values.tolist()
    text = list(map(float.__repr__, floats))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        text[i] = json.dumps(floats[i])
    return text


def _violation_chunks(report: ConditionReport):
    """The violation records of ``report`` as ``json.dumps`` lays them out at
    indent 2 inside the top-level object, joined by commas, in chunks."""
    where = report.where
    if where.ndim == 1:
        place = "%s"
    else:
        place = "[\n        " + ",\n        ".join(["%s"] * where.shape[1]) + "\n      ]"
    record = '    {\n      "check": %s,\n      "residual": %s,\n      "where": ' + place + "\n    }"
    kinds = {c: json.dumps(c) for c in set(report.check)}
    for start in range(0, len(where), _CHUNK):
        rows = slice(start, start + _CHUNK)
        columns = [
            map(kinds.__getitem__, report.check[rows]),
            _json_floats(report.residual[rows]),
        ]
        if where.ndim == 1:
            columns.append(map(int.__repr__, where[rows].tolist()))
        else:
            flat = _json_floats(where[rows].ravel())
            columns += [flat[j:: where.shape[1]] for j in range(where.shape[1])]
        yield (",\n" if start else "") + ",\n".join(map(record.__mod__, zip(*columns)))


def _out_dir(args) -> Path:
    """The ``--out`` directory, made if missing; an ``OSError`` becomes a
    ``FixsettleError`` that names it."""
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise FixsettleError(
            f"cannot use {out_dir} as the output directory: {err.strerror or err}"
        ) from err
    return out_dir


def _out_path(args, default_name: str, cfg: Optional[ScenarioConfig] = None) -> Path:
    name = default_name
    if cfg is not None and cfg.output_name:
        name = cfg.output_name
    return _out_dir(args) / name


def _require_cfg(args) -> ScenarioConfig:
    if not args.config:
        raise FixsettleError("this command requires --config")
    return load_config(args.config, seed_override=args.seed)


def _attractiveness_config(
    cfg: ScenarioConfig, lv: float, lv_source: str = "user"
) -> AttractivenessConfig:
    """The scenario's attractiveness inputs, ``branch: auto`` resolved from V(x0)."""
    branch = cfg.analysis.branch
    if branch == "auto":
        if cfg.analysis.x0 is None:
            raise FixsettleError(
                "branch 'auto' is chosen from V(x0): set analysis.x0 or an "
                "explicit analysis.branch"
            )
        branch = choose_branch(cfg.lyapunov(cfg.analysis.x0))
    return AttractivenessConfig(
        gains=cfg.gains,
        lipschitz_lv=lv,
        delta0=cfg.perturbation.delta0,
        m1=cfg.m1,
        m2=cfg.m2,
        branch=branch,
        lv_source=lv_source,
    )


DEFAULT_K_MAX = 200


def _run_orbit(cfg: ScenarioConfig, x0):
    k_max = cfg.analysis.k_max if cfg.analysis.k_max is not None else DEFAULT_K_MAX
    if cfg.perturbation is not None:
        return simulate_perturbed(
            cfg.system, cfg.perturbation, x0, k_max, cfg.analysis.stop_epsilon
        )
    return simulate(cfg.system, x0, k_max, cfg.analysis.stop_epsilon)


def cmd_simulate(args) -> int:
    cfg = _require_cfg(args)
    if cfg.analysis.x0 is None:
        raise FixsettleError("simulate requires analysis.x0")
    traj = _run_orbit(cfg, cfg.analysis.x0)
    v = cfg.lyapunov if cfg.lyapunov is not None else abs_candidate(cfg.system.dimension)
    header = ["k"] + [f"x_{i + 1}" for i in range(cfg.system.dimension)] + ["V"]
    n = len(traj.states)
    path = _out_path(args, "simulate.csv", cfg)
    _write_csv(path, header, [range(n), *traj.states.T, v.values(traj.states)])
    print(f"wrote {path} ({n} rows, truncated={traj.truncated})")
    return 0


def cmd_check(args) -> int:
    cfg = _require_cfg(args)
    if cfg.lyapunov is None or cfg.gains is None:
        raise FixsettleError("check requires lyapunov and gains sections")
    g_norm = cfg.perturbation.delta0 if cfg.perturbation is not None else None
    if cfg.analysis.grid is not None:
        scan, domain = scan_conditions, cfg.analysis.grid.materialize()
    elif cfg.analysis.x0 is not None:
        scan, domain = scan_trajectory, _run_orbit(cfg, cfg.analysis.x0)
    else:
        raise FixsettleError("check requires analysis.grid or analysis.x0")
    report = scan(
        cfg.system,
        cfg.lyapunov,
        cfg.gains,
        domain,
        v_rhs=cfg.lyapunov_rhs,
        g_norm=g_norm,
        tolerance=cfg.analysis.tolerance,
    )
    path = _out_path(args, "check.json", cfg)
    _write_json(path, report)
    print(
        f"wrote {path} ({report.condition_id.value}: "
        f"{len(report.check)} violations over {report.checked_points} points)"
    )
    return 0


def cmd_bound(args) -> int:
    cfg = _require_cfg(args)
    out = {}
    if cfg.gains is not None:
        out["K1_bound"] = phase1_bound(cfg.gains.beta, cfg.gains.r2)
        out["K2_gap"] = phase2_bound(cfg.gains.alpha, cfg.gains.r1)
        out["K_star"] = out["K1_bound"] + out["K2_gap"]  # = settling_bound(gains)
    if cfg.example_params is not None:
        out["example_K_star"] = example_bound(*cfg.example_params)
    if cfg.perturbation is not None and cfg.gains is not None:
        lv = cfg.lyapunov.lipschitz_LV if cfg.lyapunov is not None else None
        if lv is not None:
            out["perturbed_K_star"] = perturbed_settling_bound(
                _attractiveness_config(cfg, lv)
            )
    if not out:
        raise FixsettleError(
            "bound requires gains, an example system, or a perturbed setup"
        )
    path = _out_path(args, "bound.json", cfg)
    _write_json(path, out)
    print(f"wrote {path} ({', '.join(f'{k}={v}' for k, v in sorted(out.items()))})")
    return 0


TRADEOFF_NAME = "tradeoff.json"


def cmd_attract(args) -> int:
    cfg = _require_cfg(args)
    if cfg.gains is None or cfg.lyapunov is None or cfg.perturbation is None:
        raise FixsettleError("attract requires gains, lyapunov, and perturbation")
    if cfg.analysis.m_values and cfg.output_name == TRADEOFF_NAME:
        raise ConfigurationError(
            f"output.filename {TRADEOFF_NAME!r} would be overwritten by the "
            "analysis.m_values table attract writes there; choose another name"
        )
    lv = cfg.lyapunov.lipschitz_LV
    lv_source = "user"
    if lv is None and cfg.analysis.grid is not None:
        # Grid estimate of the candidate's slope; a lower bound on the true
        # constant, recorded as such in the report.
        grid = as_state_grid(cfg.analysis.grid.materialize(), cfg.system.dimension)
        lv = estimate_lipschitz(cfg.lyapunov.values, grid)
        lv_source = "estimated"
    if lv is None:
        raise FixsettleError(
            "attract requires a Lipschitz constant: set lyapunov.lipschitz, use "
            "the abs form, or provide analysis.grid for a slope estimate"
        )
    if cfg.analysis.x0 is None:
        raise FixsettleError("attract requires analysis.x0")
    acfg = _attractiveness_config(cfg, lv, lv_source)
    traj = _run_orbit(cfg, cfg.analysis.x0)
    report = analyze_attractiveness(acfg, traj, cfg.lyapunov)
    # Every table row is computed before any file is written, so a row
    # that fails leaves no report behind.
    rows = remark_tradeoff_table(acfg, cfg.analysis.m_values) if cfg.analysis.m_values else ()
    path = _out_path(args, "attract.json", cfg)
    _write_json(path, report.to_dict())
    if rows:
        tradeoff_path = Path(args.out) / TRADEOFF_NAME
        _write_json(
            tradeoff_path,
            [{"m": m, "B": b, "K_star": k} for m, b, k in rows],
        )
        print(f"wrote {tradeoff_path} ({len(rows)} rows)")
    print(
        f"wrote {path} (branch={report.branch}, B={report.B:.6g}, "
        f"K_star={report.K_star}, entry={report.empirical_entry})"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _require_cfg(args)
    if cfg.analysis.grid is None:
        raise FixsettleError("sweep requires analysis.grid")
    if cfg.example_params is not None:
        bound = example_bound(*cfg.example_params)
    elif cfg.gains is not None:
        bound = settling_bound(cfg.gains)
    else:
        raise FixsettleError("sweep requires gains or an example system")
    result = sweep_settling(
        cfg.system,
        cfg.analysis.grid.materialize(),
        bound,
        epsilon=cfg.analysis.epsilon,
        k_max=cfg.analysis.k_max,
        epsilons=cfg.analysis.epsilon_list,
        case_id=cfg.analysis.case_id or cfg.system.name,
    )
    path = _out_path(args, "sweep.json", cfg)
    _write_json(path, result.to_dict())
    print(
        f"wrote {path} (worst={result.worst_settling} at x0={result.worst_x0}, "
        f"bound={result.bound}, all_within={result.all_within_bound})"
    )
    return 0


def cmd_table1(args) -> int:
    rows = table1_reproduce()
    out_dir = _out_dir(args)
    formats = ("csv", "json") if args.format is None else (args.format,)
    if "json" in formats:
        path = out_dir / "table1.json"
        _write_json(path, [r.to_dict() for r in rows])
        print(f"wrote {path}")
    if "csv" in formats:
        header = [
            "case_id", "aprime", "bprime", "r1prime", "r2prime",
            "k_star_recomputed", "k_star_published", "discrepancy",
            "atc_published", "x0", "epsilon", "settling_entry_and_stay",
            "settling_first_entry",
        ]
        csv_rows = []
        for r in rows:
            for eps, stay, first in r.settling:
                csv_rows.append([
                    r.case_id, r.aprime, r.bprime, r.r1prime, r.r2prime,
                    r.k_star_recomputed, r.k_star_published, r.discrepancy,
                    r.atc_published, r.x0, eps, stay, first,
                ])
        path = out_dir / "table1.csv"
        _write_csv(path, header, zip(*csv_rows))
        print(f"wrote {path}")
    for r in rows:
        note = "  (recomputation differs by one; both values reported)" if r.discrepancy else ""
        print(
            f"{r.case_id}: K*={r.k_star_recomputed} "
            f"(published {r.k_star_published}){note}"
        )
    return 0


COMMANDS = ("simulate", "check", "bound", "attract", "sweep", "table1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="fixsettle",
        description=(
            "Fixed-time stability analysis of discrete-time autonomous maps: "
            "simulation, decrement checks, settling bounds, attractiveness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.set_defaults(seed=None)
        if name == "table1":
            p.add_argument("--format", choices=("csv", "json"), default=None)
        else:
            p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=".", help="output directory")
        if name in ("simulate", "check", "attract"):
            p.add_argument("--seed", type=int, default=None, help="perturbation seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a replaced ``cmd_*`` attribute is the one run.
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except SimulationDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except FixsettleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
