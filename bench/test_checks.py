"""The benchmark's checks accept the program's outputs and reject corrupted ones.

Run from the root of the repository:  python3 -m pytest bench -q
"""

import functools
import json
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fixsettle import cli  # noqa: E402
import fixsettle.systems  # noqa: E402


def run_plan(plan):
    """Run every operation once; return one verdict per op: ok, failed or wrong."""
    plan.write()
    *_, results = run.run_pass(plan.ops, cli)
    assert [code for code, _ in results] == [0] * len(plan.ops)
    verdicts = []
    for op in plan.ops:
        try:
            op.check()
            verdicts.append("ok")
        except checks.Failed:
            verdicts.append("failed")
        except checks.Wrong:
            verdicts.append("wrong")
    return verdicts


def edit_json(path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def rejects(op):
    with pytest.raises(checks.Wrong):
        op.check()


@pytest.fixture(scope="module")
def sweep_plan(tmp_path_factory):
    plan = workloads.build_sweep(5, tmp_path_factory.mktemp("sweep"), points={1: 9, 2: 5})
    assert run_plan(plan) == ["ok"] * 3
    return plan


@pytest.fixture(scope="module")
def certify_plan(tmp_path_factory):
    plan = workloads.build_certify(5, tmp_path_factory.mktemp("certify"), points=300,
                                   cases=(1, 3), orbit_scans=1)
    assert run_plan(plan) == ["ok"] * 5
    return plan


@pytest.fixture(scope="module")
def perturbed_plan(tmp_path_factory):
    plan = workloads.build_perturbed(5, tmp_path_factory.mktemp("perturbed"), n_abs=2, n_square=1)
    verdicts = run_plan(plan)
    # attract, bound, simulate per scenario; only the bound ops of the
    # V(x0) <= 1 scenarios fail.
    low = len(workloads.LOW_SCENARIOS)
    assert verdicts == ["ok"] * 9 + ["ok", "failed", "ok"] * low
    return plan


def op_named(plan, tmp_path, command, stem):
    """The named operation and its output directory, with the check reading
    a copy of the plan's outputs under tmp_path."""
    shutil.copytree(plan.out, tmp_path / "out")
    for op in plan.ops:
        if op.argv[0] == command and (op.config is None or Path(op.config).stem == stem):
            out = tmp_path / "out" / op.check.args[0].name
            check = functools.partial(op.check.func, out, *op.check.args[1:])
            return workloads.Op(op.argv, check, op.config), out
    raise LookupError(stem)


def test_exact_bounds():
    assert [ref.example_bound(c) for c in (1, 2, 3, 4)] == [19, 258, 1359, 7815]
    # (0.0025^(-1/2) - 1) / 0.0025 is exactly 7600.
    assert ref.power_floor(Q("0.0025"), Q(-1, 2), Q(1), Q("0.0025")) == 7600
    assert ref.phase1(Q("0.125"), Q("2.2")) == 38       # case 1, m1 = 2
    assert ref.phase2(Q("0.32"), Q("0.8")) == 299       # case 1, m2 = 2


def test_sweep_bound_off_by_one(sweep_plan, tmp_path):
    op, out = op_named(sweep_plan, tmp_path, "sweep", "sweep-case2")
    edit_json(out / "sweep.json", lambda d: d.update(bound=d["bound"] - 1))
    rejects(op)


def test_sweep_worst_settling_shifted(sweep_plan, tmp_path):
    op, out = op_named(sweep_plan, tmp_path, "sweep", "sweep-case1")
    edit_json(out / "sweep.json", lambda d: d.update(worst_settling=d["worst_settling"] - 1))
    rejects(op)


def test_table1_published_rounding_is_not_the_exact_bound(sweep_plan, tmp_path):
    op, out = op_named(sweep_plan, tmp_path, "table1", None)

    def clip(rows):
        rows[3]["k_star_recomputed"] = 7814
        rows[3]["discrepancy"] = False
    edit_json(out / "table1.json", clip)
    rejects(op)


def test_scan_dropped_violation(certify_plan, tmp_path):
    op, out = op_named(certify_plan, tmp_path, "check", "mixed-case3")
    edit_json(out / "check.json", lambda d: d["violations"].pop(len(d["violations"]) // 2))
    rejects(op)


def test_scan_extra_violation(certify_plan, tmp_path):
    op, out = op_named(certify_plan, tmp_path, "check", "perturbed-case1")
    grid = json.loads(Path(op.config).read_text())["analysis"]["grid"]
    xs = ref.log_grid(grid["low"], grid["high"], grid["points"], signed=True)

    def add(d):
        wheres = {v["where"][0] for v in d["violations"]}
        x = next(float(x) for x in xs if x not in wheres)
        d["violations"].append({"where": [x], "residual": 1.0, "check": "decrement"})
        d["violations"].sort(key=lambda v: v["where"][0])
    edit_json(out / "check.json", add)
    rejects(op)


def test_orbit_scan_dropped_violation(certify_plan, tmp_path):
    op, out = op_named(certify_plan, tmp_path, "check", "contraction-0")
    edit_json(out / "check.json", lambda d: d["violations"].pop(0))
    rejects(op)


def test_attract_entry_shifted(perturbed_plan, tmp_path):
    op, out = op_named(perturbed_plan, tmp_path, "attract", "abs-0")
    data = json.loads((out / "attract.json").read_text())
    assert data["empirical_entry"] is not None
    edit_json(out / "attract.json", lambda d: d.update(empirical_entry=d["empirical_entry"] + 1))
    rejects(op)


def test_attract_lipschitz_from_wrong_grid_pair(perturbed_plan, tmp_path):
    op, out = op_named(perturbed_plan, tmp_path, "attract", "square-2")
    config = json.loads(Path(op.config).read_text())
    grid = config["analysis"]["grid"]
    xs = ref.log_grid(grid["low"], grid["high"], grid["points"])
    gains = ref.example_gains(config["system"]["case"])
    wrong_lv = float(xs[-1] + xs[-3])
    b = ref.attractive_level(gains, True, Q(str(config["m1"])), wrong_lv, config["perturbation"]["delta0"])
    edit_json(out / "attract.json", lambda d: d.update(B=b))
    rejects(op)


def test_bound_off_by_one(perturbed_plan, tmp_path):
    op, out = op_named(perturbed_plan, tmp_path, "bound", "abs-1")
    edit_json(out / "bound.json", lambda d: d.update(K_star=d["K_star"] + 1))
    rejects(op)


def test_bound_perturbed_off_by_one_above_level_one(perturbed_plan, tmp_path):
    op, out = op_named(perturbed_plan, tmp_path, "bound", "abs-0")
    edit_json(out / "bound.json", lambda d: d.update(perturbed_K_star=d["perturbed_K_star"] + 1))
    rejects(op)


def test_bound_perturbed_neither_branch_below_level_one(perturbed_plan, tmp_path):
    """Below level 1 only the V0_GT_1 value is the known fault; any other
    wrong value is an error."""
    op, out = op_named(perturbed_plan, tmp_path, "bound", "low-0")
    with pytest.raises(checks.Failed):
        op.check()
    edit_json(out / "bound.json", lambda d: d.update(perturbed_K_star=d["perturbed_K_star"] + 1))
    rejects(op)


def test_simulate_row_changed(perturbed_plan, tmp_path):
    op, out = op_named(perturbed_plan, tmp_path, "simulate", "abs-0")
    lines = (out / "simulate.csv").read_text().splitlines()
    k, x, v = lines[10].split(",")
    x = float(x) * (1 + 1e-6)
    lines[10] = f"{k},{x!r},{abs(x)!r}"
    (out / "simulate.csv").write_text("\n".join(lines) + "\n")
    rejects(op)


def _numpy_pow_step(x, aprime, bprime, r1prime, r2prime):
    mag = np.abs(np.float64(x))
    m = np.maximum(aprime * np.power(mag, r1prime), bprime * np.power(mag, r2prime))
    return float(x - np.sign(x) * m)


def test_last_ulp_differences_are_accepted(tmp_path, monkeypatch):
    """A map kernel using numpy pow differs from Python ** in the last bit on
    some inputs; the checks must accept its outputs."""
    monkeypatch.setattr(fixsettle.systems, "_example_step_raw", _numpy_pow_step)
    sweep = workloads.build_sweep(8, tmp_path / "sweep", points={1: 21, 2: 11})
    assert run_plan(sweep) == ["ok"] * 3
    perturbed = workloads.build_perturbed(8, tmp_path / "perturbed", n_abs=4, n_square=1, low=False)
    assert run_plan(perturbed) == ["ok"] * 15


def test_tracer_counts_work_and_marks_absent_names(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (("systems", "no_such_function", None),))
    tracer = tracing.Tracer()
    tracer.install()
    plan = workloads.build_perturbed(9, tmp_path, n_abs=1, n_square=0, low=False)
    assert run_plan(plan) == ["ok"] * 3
    m = tracing.layer_metrics(tracer.summary(), run.bytes_written(plan.out))
    assert tracer.absent == ["systems.no_such_function"]
    assert m["systems.simulate_perturbed.steps"] == 2 * workloads.PERTURBED_STEPS
    assert m["config.load_config.calls"] == 3
    assert m["cli.main.self_s"] > 0 and m["cli.bytes_written"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
