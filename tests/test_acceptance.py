"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from fixsettle import (
    AttractivenessConfig,
    BRANCH_HIGH,
    BRANCH_LOW,
    FixedTimeGains,
    abs_candidate,
    attractive_level,
    example_bound,
    feasibility_residual,
    gains_from_example,
    lemma1_randomized_trial,
    perturbed_settling_bound,
    phase1_bound,
    phase2_bound,
    remark_tradeoff_table,
    s_sequence,
    scan_conditions,
    settling_bound,
    simulate_perturbed,
    square_candidate,
    sweep_grid,
    sweep_settling,
    table1_reproduce,
    uniform_ball_perturbation,
    verify_attractiveness,
)
from fixsettle.cli import main
from fixsettle.oracle import TABLE1_CASES


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def test_criterion_01_table1_bounds():
    start = time.perf_counter()
    rows = table1_reproduce()
    elapsed = time.perf_counter() - start
    got = {r.case_id: r.k_star_recomputed for r in rows}
    flags = {r.case_id: r.discrepancy for r in rows}
    ok = (
        got["case1"] == 19
        and got["case2"] == 258
        and got["case3"] == 1359
        and got["case4"] in (7814, 7815)
        and flags["case4"]
        and not any(flags[c] for c in ("case1", "case2", "case3"))
        and elapsed < 1.0
    )
    _report(
        1,
        "table reproduction",
        ok,
        f"K*={list(got.values())}, case4 flagged={flags['case4']}, {elapsed:.3f}s",
    )


def test_criterion_02_bound_composition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    n = 10_000
    for _ in range(n):
        gains = FixedTimeGains(
            alpha=rng.uniform(0.01, 0.99),
            beta=rng.uniform(0.01, 0.99),
            r1=rng.uniform(0.01, 0.99),
            r2=rng.uniform(1.01, 6.0),
        )
        if settling_bound(gains) != phase1_bound(gains.beta, gains.r2) + phase2_bound(
            gains.alpha, gains.r1
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    _report(2, "bound composition identity", ok, f"{n} draws, {failures} failures, {elapsed:.2f}s")


def test_criterion_03_example_mapping_identity():
    rng = np.random.default_rng(31337)
    failures = []
    n = 1000
    # Ranges keep both evaluation routes far below 2^53 so that exact
    # integer equality of independently computed floors is meaningful.
    for _ in range(n):
        p = (
            rng.uniform(0.3, 0.95),
            rng.uniform(0.05, 0.95),
            rng.uniform(0.05, 0.41),
            rng.uniform(1.05, 3.0),
        )
        if example_bound(*p) != settling_bound(gains_from_example(*p)):
            failures.append(p)
    for case in TABLE1_CASES:
        if example_bound(*case.params()) != settling_bound(gains_from_example(*case.params())):
            failures.append(case.case_id)
    _report(3, "native vs mapped bound identity", not failures, f"{n}+4 draws, failures={failures}")


def test_criterion_04_empirical_settling_within_bound():
    details = []
    ok = True
    for case in TABLE1_CASES:
        # The fixed-time statement is local: above half the sign-flip
        # threshold (1e5 / 1789 / 1600 for cases 2-4, and approaching it for
        # case 1) orbits stall or diverge, so each grid spans
        # [2, min(1e6, threshold/2)], always >= 100 points inside [2, 1e6].
        grid = sweep_grid(case, points=101, low=2.0, high=1e6, safety=0.5)
        result = sweep_settling(
            case.system(),
            grid,
            example_bound(*case.params()),
            epsilon=1.0,
            k_max=400,
            case_id=case.case_id,
        )
        details.append(
            f"{case.case_id}: worst={result.worst_settling}<=K*={result.bound} "
            f"top|x0|={grid[-1]:.4g}"
        )
        ok = ok and result.all_within_bound and len(grid) >= 100

    rows = table1_reproduce()
    print("settling vs epsilon at x0=1500 (epsilon, entry-and-stay, first-entry):")
    for row in rows:
        print(f"  {row.case_id}: {row.settling}  published-ATC={row.atc_published}")
    case1_curve = dict((e, s) for e, s, _ in rows[0].settling)
    ok = ok and case1_curve[1.0] == 5
    _report(
        4,
        "empirical settling within bound",
        ok,
        "; ".join(details) + f"; case1 settling(eps=1)={case1_curve[1.0]}",
    )


def test_criterion_05_lemma_sequence_oracle():
    start = time.perf_counter()
    summary = lemma1_randomized_trial(1000, seed=42)
    elapsed = time.perf_counter() - start
    ok = summary.passed and summary.invalid_inputs == 0 and elapsed < 5.0
    _report(
        5,
        "q-sequence randomized oracle",
        ok,
        f"{summary.n_trials} trials, {len(summary.failures)} failures, "
        f"longest run {summary.max_sequence_length}, {elapsed:.2f}s",
    )


def test_criterion_06_s_sequence_contract():
    ok = True
    for r1 in (0.1, 0.35, 0.5, 0.9):
        seq = s_sequence(1.0, r1, max_steps=8)
        ok = ok and seq.s == (1.0, 0.0) and seq.clamped_at is None
    clamped = s_sequence(0.25, 0.5, max_steps=8)
    ok = ok and clamped.s == (0.25, 0.0)
    ok = ok and clamped.clamped_at == 1 and clamped.clamp_raw == pytest.approx(-0.25)
    rng = np.random.default_rng(6)
    for _ in range(300):
        seq = s_sequence(rng.uniform(1e-9, 1.0), rng.uniform(0.01, 0.99), 16)
        ok = ok and all(v >= 0.0 for v in seq.s)
        if any(v < 0.0 for v in seq.s):
            break
    _report(6, "extinction sequence clamping", ok, "unit start -> (1, 0); negatives annotated")


def test_criterion_07_falsification_brackets_boundaries():
    case = TABLE1_CASES[0]
    gains = gains_from_example(*case.params())
    grid = np.logspace(-3.0, 4.0, 10_001)
    report = scan_conditions(
        case.system(), square_candidate(), gains, grid, v_rhs=abs_candidate()
    )
    inner = case.aprime ** (1.0 / (1.0 - case.r1prime))
    outer = case.bprime ** (1.0 / (1.0 - case.r2prime))
    flags = np.zeros(len(grid), dtype=bool)
    violating = {v.where[0] for v in report.violations}
    for i, x in enumerate(grid):
        flags[i] = float(x) in violating
    transitions = np.nonzero(flags[:-1] != flags[1:])[0]
    ok = len(transitions) == 2
    detail = f"grid={len(grid)} pts, transitions={len(transitions)}"
    if ok:
        t_inner, t_outer = transitions
        ok = (
            flags[0]
            and grid[t_inner] <= inner <= grid[t_inner + 1]
            and grid[t_outer] <= outer <= grid[t_outer + 1]
            and flags[-1]
        )
        detail += (
            f", inner {inner:.6f} in [{grid[t_inner]:.6f}, {grid[t_inner + 1]:.6f}]"
            f", outer {outer:.1f} in [{grid[t_outer]:.1f}, {grid[t_outer + 1]:.1f}]"
        )
    _report(7, "violation boundaries bracketed", ok, detail)


def test_criterion_08_attractiveness_identities():
    rng = np.random.default_rng(88)
    worst_rel = 0.0
    mono_failures = 0
    n = 1000
    for _ in range(n):
        gains = FixedTimeGains(
            alpha=rng.uniform(0.05, 0.95),
            beta=rng.uniform(0.05, 0.95),
            r1=rng.uniform(0.05, 0.95),
            r2=rng.uniform(1.05, 5.0),
        )
        lipschitz_lv = rng.uniform(0.1, 10.0)
        delta0 = rng.uniform(1e-6, 1.0)
        # Both slacks are drawn, in this order, and the branch's one is used.
        m1, m2 = rng.uniform(1.001, 50.0), rng.uniform(1.001, 50.0)
        branch = BRANCH_HIGH if rng.random() < 0.5 else BRANCH_LOW
        cfg = AttractivenessConfig(
            gains=gains,
            lipschitz_lv=lipschitz_lv,
            delta0=delta0,
            m=m1 if branch == BRANCH_HIGH else m2,
            branch=branch,
        )
        level = attractive_level(cfg)
        residual = feasibility_residual(cfg, level)
        scale = cfg.m * cfg.lipschitz_lv * cfg.delta0
        worst_rel = max(worst_rel, abs(residual) / scale)
    for _ in range(100):
        cfg = AttractivenessConfig(
            gains=FixedTimeGains(
                alpha=rng.uniform(0.05, 0.95),
                beta=rng.uniform(0.05, 0.95),
                r1=rng.uniform(0.05, 0.95),
                r2=rng.uniform(1.05, 5.0),
            ),
            lipschitz_lv=rng.uniform(0.1, 10.0),
            delta0=rng.uniform(1e-4, 0.5),
            branch=BRANCH_HIGH if rng.random() < 0.5 else BRANCH_LOW,
        )
        ms = np.sort(rng.uniform(1.0 + 1e-3, 60.0, size=6))
        rows = remark_tradeoff_table(cfg, ms)
        bs = [r[1] for r in rows]
        ks = [r[2] for r in rows]
        if not all(b2 >= b1 for b1, b2 in zip(bs, bs[1:])):
            mono_failures += 1
        if not all(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            mono_failures += 1
    ok = worst_rel <= 1e-12 and mono_failures == 0
    _report(
        8,
        "attractiveness inverse identity and tradeoff monotonicity",
        ok,
        f"worst |residual| rel = {worst_rel:.2e}, monotonicity failures = {mono_failures}",
    )


def test_criterion_09_perturbed_containment():
    case = TABLE1_CASES[0]
    system = case.system()
    gains = gains_from_example(*case.params())
    v = abs_candidate(lipschitz=1.0)
    margin = 0.05
    slack = 2
    x0 = 1500.0
    failures = []
    checked = 0
    for delta0 in (0.01, 0.05, 0.1):
        cfg = AttractivenessConfig(
            gains=gains, lipschitz_lv=1.0, delta0=delta0, m=2.0, branch=BRANCH_HIGH
        )
        level = attractive_level(cfg)
        bound = perturbed_settling_bound(cfg)
        for seed in range(10):
            pert = uniform_ball_perturbation(delta0, 1, seed=seed)
            traj = simulate_perturbed(system, pert, x0, bound + 50)
            entry, _ = verify_attractiveness(traj, v, level * (1.0 + margin))
            checked += 1
            if entry is None or entry > bound + slack:
                failures.append(
                    {
                        "delta0": delta0,
                        "seed": seed,
                        "B": level,
                        "bound": bound,
                        "entry": entry,
                        "orbit": traj.states[:, 0].tolist(),
                    }
                )
    if failures:
        # Counterexamples are evidence, not noise: dump them in full.
        print("PERTURBED-CONTAINMENT COUNTEREXAMPLES:")
        print(json.dumps(failures, indent=2))
    _report(
        9,
        "perturbed orbits reach the attractive set in bounded steps",
        not failures,
        f"{checked} orbits over delta0 in (0.01, 0.05, 0.1), {len(failures)} counterexamples",
    )


def test_criterion_10_byte_deterministic_outputs(tmp_path):
    config = {
        "schema": 1,
        "system": {"builtin": "example", "case": 1},
        "lyapunov": {"form": "abs"},
        "gains": {"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
        "perturbation": {"delta0": 0.05, "generator": "uniform_ball", "seed": 13},
        "analysis": {
            "x0": 1500.0,
            "k_max": 60,
            "grid": {"scale": "log", "low": 2.0, "high": 1e4, "points": 21},
        },
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    runs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in runs:
        for argv in (
            ["table1", "--out", str(out)],
            ["simulate", "--config", str(cfg_path), "--out", str(out)],
            ["attract", "--config", str(cfg_path), "--out", str(out)],
            ["sweep", "--config", str(cfg_path), "--out", str(out)],
        ):
            assert main(argv) == 0
    names = ["table1.csv", "table1.json", "simulate.csv", "attract.json", "sweep.json"]
    mismatched = [
        n for n in names if (runs[0] / n).read_bytes() != (runs[1] / n).read_bytes()
    ]
    _report(
        10,
        "byte-identical outputs across runs",
        not mismatched,
        f"{len(names)} artifacts compared, mismatches={mismatched}",
    )
