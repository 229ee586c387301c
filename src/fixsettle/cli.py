"""Command-line front end.

Subcommands: simulate | check | bound | attract | sweep | table1, each with
``--out DIR`` and, except table1, ``--config PATH``.  ``--seed N`` (simulate,
check, attract: the ones that draw perturbations) overrides the perturbation
seed; ``--format csv|json`` picks one of table1's outputs.  ``branch: auto``
resolves from V(x0) in both bound and attract.
Outputs are CSV (17 significant digits, '.' decimal) and strict JSON
(sorted keys, NaN and infinities as strings), both byte-stable across
runs for a fixed config and seed.  Exit
codes: 0 success, 2 config or parameter error, 3 numerical divergence.

Each ``cmd_<name>(args)`` only computes: it returns ``(outputs, lines)``,
``outputs`` a list of ``(file name, payload, note)`` in the order written,
a ``(header, columns)`` payload written as CSV and any other as JSON, and
``lines`` what is printed after the "wrote <path><note>" lines.  ``main``
alone makes ``--out``, writes and prints, so a command that fails writes
nothing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .errors import (
    ConfigurationError,
    FixsettleError,
    ParameterDomainError,
    SimulationDivergedError,
)
from .lyapunov import (
    ConditionReport,
    abs_candidate,
    estimate_lipschitz,
    scan_conditions,
    scan_trajectory,
)
from .oracle import MAX_STEPS, Table1Row, sweep_settling, table1_reproduce
from .perturbation import (
    BRANCH_HIGH,
    AttractivenessConfig,
    analyze_attractiveness,
    branch_settling_bound,
    choose_branch,
    remark_tradeoff_table,
)
from .record import encode
from .settling import analyze_settling, example_bound, settling_bound
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
    that names the path.

    An existing regular file is written over in place, not first cut to zero
    (which on ext4 forces a write-back at close), and once the writes end or
    fail it is cut to what was written if it was longer.  Anything else,
    such as ``/dev/null`` or a FIFO, is written as ``open`` would write it.
    """
    try:
        with open(
            path, "w", newline=newline, encoding="utf-8",
            opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666),
        ) as fh:
            try:
                yield fh
            finally:
                fh.flush()
                st = os.fstat(fh.fileno())
                if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
                    fh.truncate()
    except OSError as err:
        raise FixsettleError(f"cannot write {path}: {err.strerror or err}") from err


_CHUNK = 1024  # violation records or CSV rows per write


def _interleave(template: list, columns) -> str:
    """``template`` repeated once per value of ``columns``, the ``None`` slots
    filled with the texts of the columns, as one string.

    Column ``j`` fills the ``j``-th slot of every repeat with one strided slice
    assignment, so a chunk of records costs one list repeat, one assignment
    per column and one join, not one format call per record.
    """
    period = len(template)
    parts = template * len(columns[0])
    slots = [i for i, text in enumerate(template) if text is None]
    for slot, texts in zip(slots, columns):
        parts[slot::period] = texts
    return "".join(parts)


def _csv_chunks(columns, count: int):
    """The ``count`` rows that the float arrays and ``range`` columns of
    ``columns`` make side by side, as CSV text, a chunk of ``_CHUNK`` rows
    at a time.

    Each chunk is one ``%`` of the row format repeated once per row: a float
    array fills ``%.17g`` slots, which is ``_fmt``'s text, and a ``range``
    fills ``%d`` slots.  No such cell needs CSV quoting.
    """
    width = len(columns)
    row = ",".join("%d" if isinstance(col, range) else "%.17g" for col in columns) + "\n"
    for start in range(0, count, _CHUNK):
        rows = slice(start, start + _CHUNK)
        n = min(count - start, _CHUNK)
        cells = [None] * (n * width)
        for j, col in enumerate(columns):
            cells[j::width] = col[rows] if isinstance(col, range) else col[rows].tolist()
        yield row * n % tuple(cells)


def _write_csv(path: Path, header, columns):
    """Write ``header`` and the rows that ``columns`` make side by side.

    A table of float arrays and ``range`` columns only, such as an orbit,
    is written by ``_csv_chunks``; any other goes through ``csv.writer``
    with every cell as ``_fmt`` gives it, so ``csv.writer`` alone decides
    the quoting.  Columns of different lengths raise ``ValueError`` before
    anything is written.
    """
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    count = lengths.pop() if lengths else 0
    numbers = all(
        isinstance(col, range) or isinstance(col, np.ndarray) and col.dtype.kind == "f"
        for col in columns
    )
    with _writing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if numbers:
            fh.writelines(_csv_chunks(columns, count))
        else:
            writer.writerows([_fmt(x) for x in row] for row in zip(*columns))


def _write_json(path: Path, obj):
    """Write ``encode(obj)`` as ``json.dumps(..., indent=2, sort_keys=True)``
    and a newline; a float that is NaN or infinite is written as the string
    ``encode`` gives it, and one that slips through raises ``ValueError``.

    A ``ConditionReport`` is written as its ``to_dict()`` would be, byte for
    byte, but from its columns: the rest of the report goes through
    ``json.dumps`` with an empty violation list, which sorts last, and the
    records are spliced in there, a chunk at a time.
    """
    with _writing(path) as fh:
        if not isinstance(obj, ConditionReport):
            fh.write(json.dumps(encode(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")
            return
        text = json.dumps(
            {**obj.to_dict(violations=False), "violations": []},
            indent=2, sort_keys=True, allow_nan=False,
        )
        if not len(obj.residual):
            fh.write(text + "\n")
            return
        fh.write(text[: -len("]\n}")] + "\n")
        fh.writelines(_violation_chunks(obj))
        fh.write("\n  ]\n}\n")


def _json_floats(values: np.ndarray):
    """The JSON text of each float of ``values``, a slice at a time.

    Each distinct magnitude is formatted once, as its repr or, if NaN or
    infinite, as the quoted string ``encode`` gives it, and only one text
    per magnitude is kept.  The returned function gives the texts of
    ``values[rows]`` as a list: the magnitude's text with a "-" in front
    where the sign bit is set, inside the quotes for ``"-Infinity"``,
    except on NaN, which has no sign.
    """
    magnitudes, inverse = np.unique(np.abs(values), return_inverse=True)
    texts = np.array(list(map(float.__repr__, magnitudes.tolist())), dtype=object)
    non_finite = np.flatnonzero(~np.isfinite(magnitudes)).tolist()
    for i in non_finite:
        texts[i] = json.dumps(encode(magnitudes[i].item()), allow_nan=False)
    minus_inf = json.dumps(encode(-np.inf), allow_nan=False)

    def rows_text(rows: slice) -> list:
        text, part = texts[inverse[rows]], values[rows]
        negative = np.flatnonzero(np.signbit(part) & ~np.isnan(part))
        text[negative] = "-" + text[negative]
        if non_finite:
            text[part == -np.inf] = minus_inf
        return text.tolist()

    return rows_text


def _violation_chunks(report: ConditionReport):
    """The violation records of ``report`` as ``json.dumps`` lays them out at
    indent 2 inside the top-level object, joined by commas, in chunks.

    Each chunk of ``_CHUNK`` records is one ``_interleave`` of the record
    layout with the residual and coordinate texts, so formatting the floats
    is most of the cost.
    """
    where = report.where
    n = 1 if where.ndim == 1 else where.shape[1]
    # Every record starts with the comma that follows the one before it; the
    # first chunk drops it.
    template = [',\n    {\n      "check": "decrement",\n      "residual": ', None]
    if where.ndim == 1:
        template += [',\n      "where": ', None, "\n    }"]
    else:
        states = _json_floats(where.ravel())
        template += [',\n      "where": [\n        ', None]
        template += [",\n        ", None] * (n - 1) + ["\n      ]\n    }"]
    residuals = _json_floats(report.residual)
    for start in range(0, len(where), _CHUNK):
        rows = slice(start, start + _CHUNK)
        columns = [residuals(rows)]
        if where.ndim == 1:
            columns.append(list(map(int.__repr__, where[rows].tolist())))
        else:
            flat = states(slice(start * n, (start + _CHUNK) * n))
            columns += [flat[j::n] for j in range(n)]
        text = _interleave(template, columns)
        yield text if start else text[len(",\n"):]


def _out_dir(args) -> Path:
    """The ``--out`` directory, made if missing; an ``OSError`` becomes a
    ``FixsettleError`` that names it."""
    out_dir = Path(args.out)
    try:
        if not out_dir.is_dir():  # mkdir would raise and catch FileExistsError
            out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise FixsettleError(
            f"cannot use {out_dir} as the output directory: {err.strerror or err}"
        ) from err
    return out_dir


def _require_cfg(args) -> ScenarioConfig:
    if not args.config:
        raise FixsettleError("this command requires --config")
    return load_config(args.config, seed_override=args.seed)


def _branch(cfg: ScenarioConfig) -> str:
    """The scenario's branch, ``branch: auto`` resolved from V(x0)."""
    branch = cfg.analysis.branch
    if branch == "auto":
        if cfg.analysis.x0 is None:
            raise FixsettleError(
                "branch 'auto' is chosen from V(x0): set analysis.x0 or an "
                "explicit analysis.branch"
            )
        branch = choose_branch(cfg.lyapunov(cfg.analysis.x0))
    return branch


def _slack(cfg: ScenarioConfig, branch: str) -> float:
    """The slack constant m of ``branch``."""
    return cfg.m1 if branch == BRANCH_HIGH else cfg.m2


def _attractiveness_config(
    cfg: ScenarioConfig, lv: float, lv_source: str = "user"
) -> AttractivenessConfig:
    """The scenario's attractiveness inputs, ``branch: auto`` resolved from V(x0)."""
    branch = _branch(cfg)
    return AttractivenessConfig(
        gains=cfg.gains,
        lipschitz_lv=lv,
        delta0=cfg.perturbation.delta0,
        m=_slack(cfg, branch),
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


def cmd_simulate(args):
    cfg = _require_cfg(args)
    if cfg.analysis.x0 is None:
        raise FixsettleError("simulate requires analysis.x0")
    traj = _run_orbit(cfg, cfg.analysis.x0)
    v = cfg.lyapunov if cfg.lyapunov is not None else abs_candidate(cfg.system.dimension)
    header = ["k"] + [f"x_{i + 1}" for i in range(cfg.system.dimension)] + ["V"]
    n = len(traj.states)
    columns = [range(n), *traj.states.T, v.values(traj.states)]
    note = f" ({n} rows, truncated={traj.truncated})"
    return [(cfg.output_name or "simulate.csv", (header, columns), note)], ()


def cmd_check(args):
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
    note = (
        f" ({report.condition_id.value}: "
        f"{len(report.residual)} violations over {report.checked_points} points)"
    )
    return [(cfg.output_name or "check.json", report, note)], ()


def cmd_bound(args):
    cfg = _require_cfg(args)
    out = {}
    if cfg.gains is not None:
        bounds = analyze_settling(cfg.gains)
        out["K1_bound"] = bounds.bound_K1
        out["K2_gap"] = bounds.bound_K2_gap
        out["K_star"] = bounds.bound_K_star
    if cfg.example_params is not None:
        out["example_K_star"] = example_bound(*cfg.example_params)
    if cfg.perturbation is not None and cfg.gains is not None:
        # K* reads the gains, m and the branch, never L_V: it is written
        # whenever the branch resolves, as attract would report it.
        lv = cfg.lyapunov.lipschitz_LV if cfg.lyapunov is not None else None
        resolves = cfg.analysis.branch != "auto" or (
            cfg.lyapunov is not None and cfg.analysis.x0 is not None
        )
        if lv is not None or resolves:
            branch = _branch(cfg)
            try:
                out["perturbed_K_star"] = branch_settling_bound(
                    cfg.gains, _slack(cfg, branch), branch
                )
            except ParameterDomainError:
                # A K* past float64 fails a scenario with an L_V, as it
                # fails attract; one without an L_V leaves the key out.
                if lv is not None:
                    raise
    if not out:
        raise FixsettleError(
            "bound requires gains, an example system, or a perturbed setup"
        )
    note = f" ({', '.join(f'{k}={v}' for k, v in sorted(out.items()))})"
    return [(cfg.output_name or "bound.json", out, note)], ()


TRADEOFF_NAME = "tradeoff.json"


def cmd_attract(args):
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
    outputs = []
    if cfg.analysis.m_values:
        rows = remark_tradeoff_table(acfg, cfg.analysis.m_values)
        table = [{"m": m, "B": b, "K_star": k} for m, b, k in rows]
        outputs.append((TRADEOFF_NAME, table, f" ({len(rows)} rows)"))
    note = (
        f" (branch={report.branch}, B={report.B:.6g}, "
        f"K_star={report.K_star}, entry={report.empirical_entry})"
    )
    outputs.append((cfg.output_name or "attract.json", report.to_dict(), note))
    return outputs, ()


def cmd_sweep(args):
    cfg = _require_cfg(args)
    if cfg.analysis.grid is None:
        raise FixsettleError("sweep requires analysis.grid")
    if cfg.example_params is not None:
        bound = example_bound(*cfg.example_params)
    elif cfg.gains is not None:
        bound = settling_bound(cfg.gains)
    else:
        raise FixsettleError("sweep requires gains or an example system")
    k_max = bound + 50 if cfg.analysis.k_max is None else cfg.analysis.k_max
    if k_max > MAX_STEPS:
        raise ConfigurationError(
            f"sweep of {k_max} steps (analysis.k_max, or the bound + 50 when unset) "
            f"is past {MAX_STEPS}, the last index a sweep records"
        )
    result = sweep_settling(
        cfg.system,
        cfg.analysis.grid.materialize(),
        bound,
        epsilon=cfg.analysis.epsilon,
        k_max=k_max,
        epsilons=cfg.analysis.epsilon_list,
        case_id=cfg.analysis.case_id or cfg.system.name,
    )
    note = (
        f" (worst={result.worst_settling} at x0={result.worst_x0}, "
        f"bound={result.bound}, all_within={result.all_within_bound})"
    )
    return [(cfg.output_name or "sweep.json", result.to_dict(), note)], ()


def cmd_table1(args):
    rows = table1_reproduce()
    formats = ("csv", "json") if args.format is None else (args.format,)
    outputs = []
    if "json" in formats:
        outputs.append(("table1.json", [r.to_dict() for r in rows], ""))
    if "csv" in formats:
        names = [f.name for f in dataclasses.fields(Table1Row) if f.name != "settling"]
        header = names + ["epsilon", "settling_entry_and_stay", "settling_first_entry"]
        csv_rows = [
            [getattr(r, name) for name in names] + list(point)
            for r in rows
            for point in r.settling
        ]
        outputs.append(("table1.csv", (header, list(zip(*csv_rows))), ""))
    lines = [
        f"{r.case_id}: K*={r.k_star_recomputed} (published {r.k_star_published})"
        + ("  (recomputation differs by one; both values reported)" if r.discrepancy else "")
        for r in rows
    ]
    return outputs, lines


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
        outputs, lines = command(args)
        out_dir = _out_dir(args)
        for name, payload, note in outputs:
            path = out_dir / name
            if isinstance(payload, tuple):
                _write_csv(path, *payload)
            else:
                _write_json(path, payload)
            print(f"wrote {path}{note}")
    except SimulationDivergedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except FixsettleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
