"""Output checks: each reads what one CLI operation wrote and compares it
with a reference from ``reference.py``.

A check returns normally when the output is right, raises ``Wrong`` when it
contradicts the reference, and raises ``Failed`` for the one disagreement
the benchmark counts as a failed operation instead (``bound`` and
``attract`` resolving ``branch: auto`` differently for the same scenario).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Set, Tuple

import numpy as np

from reference import REL_BAND, banded, first_index, stay_index


class Wrong(Exception):
    """An output contradicts its reference."""


class Failed(Exception):
    """The operation failed; counted in ``failed``, not a correctness error."""


def expect(cond, message: str):
    if not cond:
        raise Wrong(message)


def close(got, want: float, rel: float, floor: float = 0.0) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rel * abs(want) + floor


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _key(index: Optional[int]) -> float:
    return math.inf if index is None else index


# -- sweep ---------------------------------------------------------------


@dataclass
class SweepRef:
    case_id: str
    bound: int
    epsilon: float
    x0s: np.ndarray
    stay: List[Set]              # accepted entry-and-stay indices at epsilon, per x0
    rows: List[list]             # settling_rows of each x0's orbit


def _locate(xs: np.ndarray, value: float) -> Optional[int]:
    """Index of the grid value equal to ``value`` up to 1e-12 relative."""
    pos = int(np.searchsorted(xs, value))
    for j in (pos - 1, pos):
        if 0 <= j < len(xs) and abs(xs[j] - value) <= 1e-12 * abs(value):
            return j
    return None


def _check_rows(got, rows, what: str):
    expect(isinstance(got, list) and len(got) == len(rows), f"{what}: expected {len(rows)} epsilon rows")
    for (eps, stay, first), (eps_got, stay_got, first_got) in zip(rows, got):
        expect(eps_got == eps, f"{what}: epsilon {eps_got!r}, expected {eps!r}")
        expect(stay_got in stay, f"{what}: entry-and-stay at {eps} is {stay_got}, reference {sorted(stay, key=_key)}")
        expect(first_got in first, f"{what}: first entry at {eps} is {first_got}, reference {sorted(first, key=_key)}")


def check_sweep(out: Path, ref: SweepRef):
    d = read_json(out / "sweep.json")
    expect(d["case_id"] == ref.case_id, f"case_id {d['case_id']!r}")
    expect(d["bound"] == ref.bound, f"{ref.case_id}: bound {d['bound']}, exact {ref.bound}")
    expect(d["epsilon"] == ref.epsilon, f"{ref.case_id}: epsilon {d['epsilon']}")
    expect(d["grid_description"].startswith(f"{len(ref.x0s)} initial conditions"),
           f"{ref.case_id}: grid description {d['grid_description']!r}")
    worst = d["worst_settling"]
    lows = [min(_key(s) for s in stay) for stay in ref.stay]
    expect(all(lo <= _key(worst) for lo in lows),
           f"{ref.case_id}: worst_settling {worst}, but an orbit settles at {max(lows)}")
    i0 = _locate(ref.x0s, d["worst_x0"]) if d["worst_x0"] is not None else None
    expect(i0 is not None, f"{ref.case_id}: worst_x0 {d['worst_x0']!r} is not a grid point")
    expect(worst in ref.stay[i0], f"{ref.case_id}: worst_settling {worst} at x0={d['worst_x0']!r}, "
           f"reference {sorted(ref.stay[i0], key=_key)}")
    expect(all(lows[j] < _key(worst) for j in range(i0)),
           f"{ref.case_id}: an earlier grid point already settles at {worst}")
    expect(worst is not None and worst <= ref.bound,
           f"{ref.case_id}: worst_settling {worst} exceeds the bound {ref.bound}")
    within = {all(lo <= ref.bound for lo in lows),
              all(max(_key(s) for s in stay) <= ref.bound for stay in ref.stay)}
    expect(d["all_within_bound"] in within, f"{ref.case_id}: all_within_bound {d['all_within_bound']}")
    _check_rows(d["settling_vs_epsilon"], ref.rows[i0], f"{ref.case_id} settling_vs_epsilon")


@dataclass
class Table1Ref:
    params: List[Tuple[float, float, float, float]]
    exact: List[int]
    published: List[int]
    atc: List[int]
    x0: float
    rows: List[list]


TABLE1_HEADER = [
    "case_id", "aprime", "bprime", "r1prime", "r2prime", "k_star_recomputed",
    "k_star_published", "discrepancy", "atc_published", "x0", "epsilon",
    "settling_entry_and_stay", "settling_first_entry",
]


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def check_table1(out: Path, ref: Table1Ref):
    rows = read_json(out / "table1.json")
    expect(len(rows) == len(ref.exact), f"table1: {len(rows)} rows")
    expected_csv = []
    for i, row in enumerate(rows):
        cid = f"case{i + 1}"
        expect(row["case_id"] == cid, f"table1 row {i}: case_id {row['case_id']!r}")
        got = (row["aprime"], row["bprime"], row["r1prime"], row["r2prime"])
        expect(got == ref.params[i], f"{cid}: parameters {got}")
        expect(row["k_star_recomputed"] == ref.exact[i],
               f"{cid}: k_star_recomputed {row['k_star_recomputed']}, exact {ref.exact[i]}")
        expect(row["k_star_published"] == ref.published[i], f"{cid}: k_star_published {row['k_star_published']}")
        expect(row["discrepancy"] == (ref.exact[i] != ref.published[i]), f"{cid}: discrepancy {row['discrepancy']}")
        expect(row["atc_published"] == ref.atc[i], f"{cid}: atc_published {row['atc_published']}")
        expect(row["x0"] == ref.x0, f"{cid}: x0 {row['x0']}")
        _check_rows(row["settling"], ref.rows[i], f"{cid} settling")
        for eps, stay, first in row["settling"]:
            expected_csv.append([cid, *got, row["k_star_recomputed"], row["k_star_published"],
                                 row["discrepancy"], row["atc_published"], row["x0"], eps, stay, first])
    with open(out / "table1.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    expect(table and table[0] == TABLE1_HEADER, "table1.csv: header")
    parsed = [[_csv_value(v) for v in line] for line in table[1:]]
    expect(parsed == expected_csv, "table1.csv disagrees with table1.json")


# -- condition scans ---------------------------------------------------------


@dataclass
class ScanRef:
    condition_id: str
    tolerance: float
    violating: np.ndarray
    ambiguous: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    grid: Optional[np.ndarray] = None    # ascending 1-D grid; None for orbit scans


def _intervals(xs: np.ndarray, flags: np.ndarray) -> list:
    out = []
    start = None
    for j, bad in enumerate(flags):
        if bad and start is None:
            start = j
        elif not bad and start is not None:
            out.append([float(xs[start]), float(xs[j - 1])])
            start = None
    if start is not None:
        out.append([float(xs[start]), float(xs[-1])])
    return out


def check_scan(out: Path, ref: ScanRef):
    d = read_json(out / "check.json")
    n = len(ref.violating)
    what = ref.condition_id
    expect(d["condition_id"] == ref.condition_id, f"condition_id {d['condition_id']!r}")
    expect(d["checked_points"] == n, f"{what}: checked_points {d['checked_points']}, expected {n}")
    expect(d["tolerance"] == ref.tolerance, f"{what}: tolerance {d['tolerance']}")
    expect(d["value_zero_points"] == [], f"{what}: value_zero_points {d['value_zero_points'][:3]}")
    violations = d["violations"]
    if ref.grid is None:
        idx = [v["where"] for v in violations]
        expect(all(isinstance(k, int) and 0 <= k < n for k in idx), f"{what}: violation index out of range")
    else:
        idx = [_locate(ref.grid, v["where"][0]) for v in violations]
        expect(None not in idx, f"{what}: a violation lies off the grid")
    expect(all(a < b for a, b in zip(idx, idx[1:])), f"{what}: violations not in grid order")
    expect(all(v["check"] == "decrement" for v in violations), f"{what}: unexpected check kind")
    flags = np.zeros(n, dtype=bool)
    flags[idx] = True
    wrong = (flags != ref.violating) & ~ref.ambiguous
    if wrong.any():
        j = int(np.argmax(wrong))
        where = ref.grid[j] if ref.grid is not None else j
        raise Wrong(f"{what}: {int(wrong.sum())} points misclassified, first at {where!r} "
                    f"(reference residual {ref.residual[j]:.6g}, reported {'a' if flags[j] else 'no'} violation)")
    got = np.array([v["residual"] for v in violations], dtype=float)
    idx = np.array(idx, dtype=int)
    off = np.abs(got - ref.residual[idx]) > REL_BAND * ref.scale[idx]
    expect(not off.any(), f"{what}: {int(off.sum())} violation residuals differ from the reference")
    top = int(np.argmax(ref.residual))
    expect(close(d["max_residual"], float(ref.residual[top]), 0.0, REL_BAND * float(ref.scale[top])),
           f"{what}: max_residual {d['max_residual']}, reference {ref.residual[top]}")
    expect(d["holds_everywhere"] == (len(violations) == 0), f"{what}: holds_everywhere")
    if ref.grid is None:
        expect(d["violation_intervals"] is None, f"{what}: orbit scan reports intervals")
    else:
        expect(d["violation_intervals"] == _intervals(ref.grid, flags),
               f"{what}: violation_intervals do not group the reported violations")


# -- perturbed scenarios ---------------------------------------------------------


@dataclass
class AttractRef:
    branch: str
    B: float
    K_star: int
    gain_d: float
    lv_source: str
    lvd: float                    # m * L_V * delta0, the scale of the feasibility residual
    values: List[float]           # V along the reference orbit
    tradeoff: List[Tuple[float, float, int]]


def _remained(values, thr) -> bool:
    entry = stay_index(values, thr)
    first = first_index(values, thr)
    return first is not None and entry == first


def check_attract(out: Path, ref: AttractRef):
    d = read_json(out / "attract.json")
    expect(d["branch"] == ref.branch, f"branch {d['branch']}, expected {ref.branch}")
    expect(d["K_star"] == ref.K_star, f"K_star {d['K_star']}, exact {ref.K_star}")
    expect(close(d["B"], ref.B, REL_BAND), f"B {d['B']!r}, closed form {ref.B!r}")
    expect(close(d["gain_d"], ref.gain_d, 1e-12), f"gain_d {d['gain_d']!r}, expected {ref.gain_d!r}")
    expect(close(d["feasibility_residual"], 0.0, 0.0, REL_BAND * ref.lvd),
           f"feasibility_residual {d['feasibility_residual']!r} is not ~0")
    expect(d["lv_source"] == ref.lv_source, f"lv_source {d['lv_source']!r}")
    entries = banded(stay_index, ref.values, ref.B)
    expect(d["empirical_entry"] in entries,
           f"empirical_entry {d['empirical_entry']}, reference {sorted(entries, key=_key)}")
    expect(d["remained_inside"] in banded(_remained, ref.values, ref.B),
           f"remained_inside {d['remained_inside']}")
    crossings = banded(first_index, ref.values, 1.0) if ref.values[0] > 1.0 else {None}
    expect(d["v_crossing_index"] in crossings, f"v_crossing_index {d['v_crossing_index']}")
    rows = read_json(out / "tradeoff.json")
    expect(len(rows) == len(ref.tradeoff), f"tradeoff: {len(rows)} rows")
    for row, (m, b, k) in zip(rows, ref.tradeoff):
        expect(row["m"] == m, f"tradeoff m {row['m']}, expected {m}")
        expect(close(row["B"], b, REL_BAND), f"tradeoff B at m={m}: {row['B']!r}, closed form {b!r}")
        expect(row["K_star"] == k, f"tradeoff K_star at m={m}: {row['K_star']}, exact {k}")
    expect(all(a["B"] <= b["B"] for a, b in zip(rows, rows[1:])), "tradeoff B decreases in m")
    expect(all(a["K_star"] >= b["K_star"] for a, b in zip(rows, rows[1:])), "tradeoff K_star increases in m")


@dataclass
class BoundRef:
    K_star: int
    K1: int
    K2: int
    example_K_star: int
    perturbed: bool               # the candidate has a Lipschitz constant, so bound reports perturbed_K_star
    perturbed_K_star: int         # exact, on the branch V(x0) picks (what attract reports)
    auto_K_star: int              # exact on V0_GT_1, which bound takes for branch: auto


def check_bound(out: Path, ref: BoundRef):
    d = read_json(out / "bound.json")
    expect(d["K_star"] == ref.K_star, f"K_star {d['K_star']}, exact {ref.K_star}")
    expect(d["K1_bound"] == ref.K1, f"K1_bound {d['K1_bound']}, exact {ref.K1}")
    expect(d["K2_gap"] == ref.K2, f"K2_gap {d['K2_gap']}, exact {ref.K2}")
    expect(d["K1_bound"] + d["K2_gap"] == d["K_star"], "K1_bound + K2_gap != K_star")
    expect(d["example_K_star"] == ref.example_K_star,
           f"example_K_star {d['example_K_star']}, exact {ref.example_K_star}")
    got = d.get("perturbed_K_star")
    expect(got is not None or not ref.perturbed, "perturbed_K_star missing")
    if got is None or got == ref.perturbed_K_star:
        return
    # Only reachable when V(x0) <= 1: above level 1 the two exact values are one.
    if got == ref.auto_K_star:
        raise Failed(f"perturbed_K_star={got} is the V0_GT_1 bound, but V(x0) <= 1 "
                     f"gives {ref.perturbed_K_star}, as attract reports")
    raise Wrong(f"perturbed_K_star {got}, exact {ref.perturbed_K_star}")


@dataclass
class SimulateRef:
    states: List[float]
    delta0: float
    square: bool                  # V = x^2 rather than |x|


def check_simulate(out: Path, ref: SimulateRef):
    with open(out / "simulate.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    expect(table and table[0] == ["k", "x_1", "V"], f"simulate.csv header {table[:1]}")
    rows = table[1:]
    expect(len(rows) == len(ref.states), f"simulate.csv: {len(rows)} rows, expected {len(ref.states)}")
    prev = abs(ref.states[0])
    for k, (row, want) in enumerate(zip(rows, ref.states)):
        expect(len(row) == 3 and row[0] == str(k), f"simulate.csv row {k}: {row}")
        x, v = float(row[1]), float(row[2])
        scale = max(abs(want), prev, ref.delta0)
        expect(abs(x - want) <= REL_BAND * scale, f"simulate.csv row {k}: x={x!r}, reference {want!r}")
        v_want = x * x if ref.square else abs(x)
        expect(close(v, v_want, 1e-12), f"simulate.csv row {k}: V={v!r} for x={x!r}")
        prev = abs(want)
