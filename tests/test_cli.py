import argparse
import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fixsettle
from fixsettle import cli
from fixsettle.cli import main
from fixsettle.lyapunov import (
    ConditionId,
    ConditionReport,
    FixedTimeGains,
    abs_candidate,
    scan_conditions,
    square_candidate,
)
from fixsettle.systems import affine_system
from fixsettle.oracle import SweepResult, Table1Row
from fixsettle.perturbation import AttractivenessReport
from conftest import CASE1, mp_example_orbit


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def case1_config(**overrides):
    cfg = {
        "schema": 1,
        "system": {"builtin": "example", "case": 1},
        "lyapunov": {"form": "abs"},
        "analysis": {"x0": 1500.0, "k_max": 40},
    }
    cfg.update(overrides)
    return cfg


_GAINS = {"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2}
_RADIAL = {"delta0": 0.05, "generator": "radial"}


class TestSimulateCommand:
    def test_csv_contract(self, tmp_path):
        cfg = write_config(tmp_path, case1_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "simulate.csv").open()))
        assert rows[0] == ["k", "x_1", "V"]
        assert len(rows) == 42  # header + 41 states
        assert rows[1] == ["0", "1500", "1500"]
        refs = mp_example_orbit(1500.0, CASE1, 6)
        for k in range(7):
            assert float(rows[1 + k][1]) == pytest.approx(refs[k], rel=1e-9)
        assert abs(float(rows[6][1])) == pytest.approx(0.9597, abs=5e-5)

    def test_zero_initial_state(self, tmp_path):
        cfg = write_config(
            tmp_path, case1_config(analysis={"x0": 0.0, "k_max": 5})
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "simulate.csv").open()))
        assert all(row[1] == "0" for row in rows[1:])

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema": 1,
                "system": {"builtin": "example", "case": 2},
                "analysis": {"x0": 2e5, "k_max": 400},
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_missing_x0_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, case1_config(analysis={"k_max": 5}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("error")
    def test_divergence_by_overflow_prints_only_the_error(self, tmp_path, capsys):
        # Case 1 from 2e6 overflows |x|^r2' at step 57; numpy's overflow
        # warning must not reach stderr ahead of the error line.
        cfg = write_config(
            tmp_path,
            {"schema": 1, "system": {"builtin": "example", "case": 1}, "analysis": {"x0": 2e6}},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "error: state diverged at step 57 of 'example' (last finite index 56)\n"
        )


class TestConfigValidation:
    def test_bad_schema(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 2, "system": {"builtin": "example", "case": 1}})
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_inadmissible_gains_name_the_condition(self, tmp_path, capsys):
        payload = case1_config(gains={"alpha": 1.5, "beta": 0.25, "r1": 0.8, "r2": 2.2})
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "(0, 1)" in err

    def test_m_constant_validation(self, tmp_path):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 3},
            m1=1.0,
        )
        payload["analysis"]["branch"] = "V0_GT_1"
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_constant_vector_of_the_wrong_length(self, tmp_path, capsys):
        payload = case1_config(
            perturbation={"delta0": 0.05, "generator": "constant", "vector": [0.01, 0.0]}
        )
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: perturbation.vector has shape (2,), expected a vector of length 1\n"
        )

    def test_nan_perturbation_breaks_the_bound(self, tmp_path, capsys):
        payload = case1_config(
            perturbation={"delta0": 0.05, "generator": "constant", "vector": [math.nan]}
        )
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "has norm nan, which is not strictly below delta0=0.05" in capsys.readouterr().err

    _AFFINE_2D = {"affine": {"matrix": [[0.5, 0.0], [0.0, 0.5]]}}

    @staticmethod
    def _vector_scenario(system=None, x0=1500.0, vector=(0.01,)):
        payload = case1_config(
            gains=_GAINS,
            perturbation={"delta0": 0.05, "generator": "constant", "vector": list(vector)},
            analysis={
                "x0": x0, "k_max": 20, "branch": "V0_GT_1",
                "grid": {"scale": "log", "low": 2.0, "high": 100.0, "points": 5},
            },
        )
        if system is not None:
            payload["system"] = system
            payload["perturbation"] = _RADIAL
        return payload

    @pytest.mark.parametrize("command", ["simulate", "check", "bound", "attract", "sweep"])
    @pytest.mark.parametrize("scenario, error", [
        ({}, None),
        ({"system": _AFFINE_2D, "x0": [1.0, 2.0, 3.0]},
         "analysis.x0 has shape (3,), expected a vector of length 2"),
        ({"x0": [1500.0, 1.0]}, "analysis.x0 has shape (2,), expected a vector of length 1"),
        ({"vector": [0.5]},
         "perturbation.vector has norm 0.5, which is not strictly below delta0=0.05"),
        ({"vector": [0.05]},
         "perturbation.vector has norm 0.05, which is not strictly below delta0=0.05"),
        ({"vector": [math.nan]},
         "perturbation.vector has norm nan, which is not strictly below delta0=0.05"),
        ({"vector": ["0.01"]}, "perturbation.vector[0] must be a number, got '0.01'"),
        ({"vector": [True]}, "perturbation.vector[0] must be a number, got True"),
    ], ids=["valid", "x0-too-long-2d", "x0-too-long-1d", "vector-norm-above-delta0",
            "vector-norm-at-delta0", "vector-nan", "vector-string", "vector-boolean"])
    def test_commands_agree_on_malformed_vectors(self, tmp_path, capsys, command,
                                                  scenario, error):
        # Commands used to disagree: bound exited 0 on every bad scenario,
        # grid-mode check and sweep on all but the 2-D one, and the string
        # entry passed in every command.
        cfg = write_config(tmp_path, self._vector_scenario(**scenario))
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if error is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: {error}\n")
            assert not out.exists()

    _EVERY_SECTION = {
        "schema": 1,
        "system": {
            "builtin": "example",
            "params": {"aprime": 0.8, "bprime": 0.5, "r1prime": 0.4, "r2prime": 1.1},
        },
        "lyapunov": {"form": "abs", "rhs": {"form": "abs"}},
        "gains": _GAINS,
        "perturbation": _RADIAL,
        "analysis": {"x0": 1500.0, "grid": {"low": 2.0, "high": 100.0, "points": 5}},
        "output": {"filename": "out.json"},
    }

    @pytest.mark.parametrize("command", ["simulate", "check", "bound", "attract", "sweep"])
    @pytest.mark.parametrize("path, key, known", [
        ((), "gain", "gains"),
        (("system",), "cases", "case"),
        (("system", "params"), "a_prime", "aprime"),
        (("system", "affine"), "offst", "offset"),
        (("lyapunov",), "lipshitz", "lipschitz"),
        (("lyapunov", "rhs"), "rhs", "form"),
        (("gains",), "alfa", "alpha"),
        (("perturbation",), "sead", "seed"),
        (("analysis",), "kmax", "k_max"),
        (("analysis", "grid"), "point", "points"),
        (("output",), "file_name", "filename"),
    ], ids=lambda v: ".".join(v) or "root" if isinstance(v, tuple) else None)
    def test_unknown_keys_are_rejected(self, tmp_path, capsys, command, path, key, known):
        # Unknown keys used to be ignored: "lipshitz" ran with L_V = 1.0 and
        # "kmax" with the default step budget.
        payload = json.loads(json.dumps(self._EVERY_SECTION))
        if path[:2] == ("system", "affine"):
            payload["system"] = {"affine": {"matrix": [[0.5]]}}
        section = payload
        for name in path:
            section = section[name]
        section[key] = 1
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        prefix = f"error: {'.'.join(path) or 'config root'}: unknown key {key!r}; allowed keys are "
        assert err.startswith(prefix) and known in err[len(prefix):].rstrip("\n").split(", ")
        assert not out.exists()

    @pytest.mark.parametrize("generator", [
        {"generator": "uniform_ball"},
        {"generator": "radial"},
        {"generator": "constant", "vector": [0.01]},
    ])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_rejected_for_every_generator(self, tmp_path, capsys, generator, where):
        perturbation = {"delta0": 0.05, **generator}
        if where == "config":
            perturbation["seed"] = -1
        cfg = write_config(tmp_path, case1_config(perturbation=perturbation))
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), *flag]) == 2
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"

    @staticmethod
    def _integer_fields(case=1, points=5, k_max=40, seed=3):
        payload = case1_config(
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": seed}
        )
        payload["system"]["case"] = case
        payload["analysis"].update(
            k_max=k_max, grid={"scale": "log", "low": 2.0, "high": 100.0, "points": points}
        )
        return payload

    @pytest.mark.parametrize("key, value", [
        ("system.case", 1.9), ("system.case", True), ("system.case", "1"),
        ("grid.points", 10.7), ("grid.points", True), ("grid.points", math.inf),
        ("analysis.k_max", 12.9), ("analysis.k_max", "40"),
        ("perturbation.seed", 2.5), ("perturbation.seed", "7"), ("perturbation.seed", False),
    ])
    def test_integer_fields_reject_what_is_not_an_integer(self, tmp_path, capsys, key, value):
        # Each used to be truncated by int(): 1.9 ran case 1, true was 1 point.
        payload = self._integer_fields(**{key.split(".")[1]: value})
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {key} must be an integer, got {value!r}\n"

    def test_integer_fields_accept_integral_floats(self, tmp_path, capsys):
        outputs = []
        for number in (int, float):
            payload = self._integer_fields(*(number(v) for v in (1, 5, 40, 3)))
            out = tmp_path / number.__name__
            cfg = write_config(tmp_path, payload, f"{number.__name__}.json")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((printed, (out / "simulate.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("key, value", [
        ("system", ["example"]),
        ("system.params", 0.8),
        ("system.affine", [[0.5]]),
        ("lyapunov", "abs"),
        ("lyapunov.rhs", "abs"),
        ("gains", [0.64, 0.25, 0.8, 2.2]),
        ("perturbation", 0.05),
        ("analysis", []),
        ("analysis.grid", 5),
        ("output", "run.csv"),
    ])
    def test_sections_must_be_objects(self, tmp_path, capsys, key, value):
        # Each used to crash with a traceback and exit 1.
        payload = case1_config()
        if key == "system.params":
            payload["system"] = {"builtin": "example", "params": value}
        elif key == "system.affine":
            payload["system"] = {"affine": value}
        elif key == "lyapunov.rhs":
            payload["lyapunov"] = {"form": "square", "rhs": value}
        elif key == "analysis.grid":
            payload["analysis"]["grid"] = value
        else:
            payload[key] = value
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {key} must be a JSON object, got {value!r}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [5, "sub/run.csv", "/run.csv", "..", "", "run/"])
    def test_output_filename_must_be_a_plain_file(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, case1_config(output={"filename": name}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: output.filename must name a plain file inside --out, got {name!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("key, value, path", [
        ("grid.signed", "false", ("analysis", "grid", "signed")),
        ("grid.signed", 0, ("analysis", "grid", "signed")),
        ("grid.low", "2", ("analysis", "grid", "low")),
        ("perturbation.delta0", True, ("perturbation", "delta0")),
        ("analysis.epsilon", "0.5", ("analysis", "epsilon")),
        ("analysis.tolerance", True, ("analysis", "tolerance")),
        ("analysis.stop_epsilon", "0.1", ("analysis", "stop_epsilon")),
        ("analysis.epsilon_list", 1.0, ("analysis", "epsilon_list")),
        ("analysis.epsilon_list[1]", "1", ("analysis", "epsilon_list", 1)),
        ("analysis.m_values[0]", False, ("analysis", "m_values", 0)),
        ("analysis.x0", "1500", ("analysis", "x0")),
        ("analysis.x0[0]", None, ("analysis", "x0", 0)),
        ("gains.alpha", "0.64", ("gains", "alpha")),
        ("system.params.aprime", True, ("system", "params", "aprime")),
        ("lyapunov.coefficients[0]", True, ("lyapunov", "coefficients", 0)),
        ("lyapunov.lipschitz", "1", ("lyapunov", "lipschitz")),
        ("m1", "2", ("m1",)),
    ])
    def test_scalars_of_the_wrong_json_type(self, tmp_path, capsys, key, value, path):
        # Each used to go through float() or bool(): "false" built a signed grid.
        payload = {
            "schema": 1,
            "system": {"builtin": "example", "params": dict(zip(
                ("aprime", "bprime", "r1prime", "r2prime"), CASE1
            ))},
            "lyapunov": {"form": "poly", "coefficients": [1.0], "lipschitz": 1.0},
            "gains": {"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            "perturbation": {"delta0": 0.05, "generator": "uniform_ball", "seed": 3},
            "m1": 2.0,
            "analysis": {
                "x0": [1500.0], "k_max": 40, "epsilon": 1.0, "tolerance": 1e-12,
                "stop_epsilon": 0.1, "epsilon_list": [10.0, 1.0], "m_values": [2.0],
                "grid": {"scale": "log", "low": 2.0, "high": 100.0, "points": 5},
            },
        }
        cfg = write_config(tmp_path, payload, "valid.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "valid")]) == 0
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        cfg = write_config(tmp_path, payload)
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        kind = "true or false" if key == "grid.signed" else (
            "an array of numbers" if key == "analysis.epsilon_list" else "a number"
        )
        assert capsys.readouterr().err == f"error: {key} must be {kind}, got {value!r}\n"

    def test_numbers_accept_integers(self, tmp_path, capsys):
        outputs = []
        for number in (int, float):
            payload = case1_config(
                analysis={"x0": number(1500), "k_max": 40, "stop_epsilon": number(1)}
            )
            out = tmp_path / number.__name__
            cfg = write_config(tmp_path, payload, f"{number.__name__}.json")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((printed, (out / "simulate.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_number_beyond_float_range_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, case1_config(m1=10 ** 400))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["bound", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestBoundCommand:
    def test_example_and_gains_keys(self, tmp_path):
        payload = case1_config(gains={"alpha": 0.25, "beta": 0.25, "r1": 0.5, "r2": 2.0})
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "bound.json").read_text())
        assert out["example_K_star"] == 19
        assert out["K_star"] == 30
        assert out["K1_bound"] == 13
        assert out["K2_gap"] == 17

    def test_each_phase_bound_evaluated_once(self, tmp_path, monkeypatch):
        from fixsettle import settling

        calls = []
        for name in ("phase1_bound", "phase2_bound"):
            def counted(*args, _name=name, _fn=getattr(settling, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(settling, name, counted)
            monkeypatch.setattr(cli, name, counted)
        payload = case1_config(gains={"alpha": 0.25, "beta": 0.25, "r1": 0.5, "r2": 2.0})
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert sorted(calls) == ["phase1_bound", "phase2_bound"]
        out = json.loads((tmp_path / "bound.json").read_text())
        assert out["K_star"] == out["K1_bound"] + out["K2_gap"] == 30

    def test_perturbed_bound_key(self, tmp_path):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.0},
            perturbation={"delta0": 0.1, "generator": "uniform_ball", "seed": 0},
            m1=2.0,
        )
        payload["analysis"]["branch"] = "V0_GT_1"
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "bound.json").read_text())
        assert out["perturbed_K_star"] == 57

    def test_auto_branch_agrees_with_attract_below_level_one(self, tmp_path):
        # V(x0) = 0.5 <= 1 picks the low branch in both commands.
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 7},
            analysis={"x0": 0.5, "k_max": 50, "branch": "auto"},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 0
        bound = json.loads((tmp_path / "bound.json").read_text())
        attract = json.loads((tmp_path / "attract.json").read_text())
        assert attract["branch"] == "V0_LE_1"
        assert bound["perturbed_K_star"] == attract["K_star"] == 299

    def test_overflowing_bound_is_a_domain_error(self, tmp_path, capsys):
        # beta^(1/(1-r2)) = 0.25^(-1e7) overflows float64.
        payload = case1_config(gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 1.0000001})
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err

    def test_auto_branch_needs_x0(self, tmp_path, capsys):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 7},
            analysis={"k_max": 50},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "analysis.x0" in capsys.readouterr().err


class TestCheckCommand:
    def test_mixed_scan_brackets_boundaries(self, tmp_path):
        payload = case1_config(
            lyapunov={"form": "square", "rhs": {"form": "abs"}},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            analysis={"grid": {"scale": "log", "low": 1e-3, "high": 1e4, "points": 4001}},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = ConditionReport.from_dict(
            json.loads((tmp_path / "check.json").read_text())
        )
        assert report.condition_id.value == "FT_MIXED"
        inner = CASE1[0] ** (1.0 / (1.0 - CASE1[2]))
        outer = CASE1[1] ** (1.0 / (1.0 - CASE1[3]))
        low_iv, high_iv = report.violation_intervals
        assert low_iv[1] <= inner <= high_iv[0]
        assert low_iv[1] == pytest.approx(inner, rel=0.01)
        assert high_iv[0] == pytest.approx(outer, rel=0.01)

    def test_overflowing_candidate_is_reported_not_certified(self, tmp_path):
        payload = case1_config(
            lyapunov={"form": "poly", "coefficients": [1.0, 1.0, 1.0]},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            analysis={"grid": {"scale": "log", "low": 1e120, "high": 1e150, "points": 4}},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "check.json").read_text())
        assert data["holds_everywhere"] is False
        assert len(data["violations"]) == 4
        assert math.isnan(data["max_residual"])

    def test_trajectory_mode(self, tmp_path):
        payload = case1_config(
            lyapunov={"form": "square", "rhs": {"form": "abs"}},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            analysis={"x0": 800.0, "k_max": 10},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = ConditionReport.from_dict(
            json.loads((tmp_path / "check.json").read_text())
        )
        assert report.checked_points == 10
        assert all(isinstance(v.where, int) for v in report.violations)

    def test_json_roundtrip_field_equality(self, tmp_path):
        payload = case1_config(
            lyapunov={"form": "square", "rhs": {"form": "abs"}},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            analysis={"grid": {"scale": "log", "low": 0.01, "high": 100.0, "points": 101}},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        from fixsettle.lyapunov import scan_conditions, square_candidate, abs_candidate
        from fixsettle.lyapunov import FixedTimeGains
        from fixsettle.systems import example_system
        import numpy as np

        direct = scan_conditions(
            example_system(*CASE1),
            square_candidate(),
            FixedTimeGains(0.64, 0.25, 0.8, 2.2),
            np.logspace(np.log10(0.01), np.log10(100.0), 101),
            v_rhs=abs_candidate(),
        )
        parsed = ConditionReport.from_dict(json.loads((tmp_path / "check.json").read_text()))
        assert parsed == direct


    @pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("domain", [
        {"grid": {"scale": "log", "low": 1e-3, "high": 1.0, "points": 50}},
        {"x0": 800.0, "k_max": 10},
    ], ids=["grid", "orbit"])
    def test_non_finite_tolerance_is_config_error(self, tmp_path, capsys, tolerance, domain):
        # inf would pass every point and NaN flag every one.
        payload = case1_config(
            lyapunov={"form": "abs"},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            analysis={**domain, "tolerance": tolerance},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "tolerance must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "check.json").exists()


class TestAttractCommand:
    def test_zero_delta_collapses_level(self, tmp_path):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.0, "generator": "uniform_ball", "seed": 5},
        )
        payload["analysis"]["k_max"] = 60
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = AttractivenessReport.from_dict(
            json.loads((tmp_path / "attract.json").read_text())
        )
        assert report.B == 0.0
        assert report.empirical_entry is None  # orbit never reaches exact zero

    def test_overflowing_level_is_a_domain_error(self, tmp_path, capsys):
        # B = (2 * 1 * 0.1 / 0.01)^(1/0.001) = 20^1000 on the low branch.
        payload = case1_config(
            gains={"alpha": 0.01, "beta": 0.25, "r1": 0.001, "r2": 2.2},
            perturbation={"delta0": 0.1, "generator": "uniform_ball", "seed": 5},
            analysis={"x0": 0.5, "k_max": 20, "branch": "auto"},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "level B" in err

    def test_perturbed_run_and_tradeoff(self, tmp_path):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 5},
        )
        payload["analysis"].update({"k_max": 80, "m_values": [1.5, 2.0, 4.0]})
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = AttractivenessReport.from_dict(
            json.loads((tmp_path / "attract.json").read_text())
        )
        assert report.branch == "V0_GT_1"
        assert report.empirical_entry is not None
        assert report.remained_inside
        rows = json.loads((tmp_path / "tradeoff.json").read_text())
        assert [r["m"] for r in rows] == [1.5, 2.0, 4.0]
        ks = [r["K_star"] for r in rows]
        assert ks == sorted(ks, reverse=True)


class TestSweepCommand:
    def test_sweep_json(self, tmp_path):
        payload = case1_config(
            analysis={
                "grid": {"scale": "log", "low": 2.0, "high": 1e5, "points": 25},
                "epsilon": 1.0,
            },
        )
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        result = SweepResult.from_dict(json.loads((tmp_path / "sweep.json").read_text()))
        assert result.bound == 19
        assert result.all_within_bound
        assert result.worst_settling <= 19


    @pytest.mark.parametrize("case_id", [[1, 2], 3, None, True])
    def test_case_id_must_be_a_string(self, tmp_path, capsys, case_id):
        # str() would write a list to sweep.json as "[1, 2]".
        payload = case1_config(analysis={
            "grid": {"scale": "log", "low": 2.0, "high": 1e5, "points": 5},
            "case_id": case_id,
        })
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"analysis.case_id must be a string, got {case_id!r}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

    def test_multidimensional_system_is_config_error(self, tmp_path, capsys):
        payload = {
            "schema": 1,
            "system": {"affine": {"matrix": [[0.5, 0.0], [0.0, 0.5]]}},
            "gains": {"alpha": 0.5, "beta": 0.5, "r1": 0.5, "r2": 2.0},
            "analysis": {"grid": {"scale": "log", "low": 1.0, "high": 10.0, "points": 3}},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "dimension 2" in capsys.readouterr().err

    def test_divergence_reports_first_x0_in_grid_order(self, tmp_path, capsys):
        # Every x0 of this case-2 grid lies above the divergence threshold
        # 1e5; the later ones leave the guard sooner, the first is reported.
        payload = {
            "schema": 1,
            "system": {"builtin": "example", "case": 2},
            "analysis": {
                "grid": {"scale": "log", "low": 2e5, "high": 1e6, "points": 5},
                "k_max": 400,
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "error: sweep orbit from x0=200000.00000000003 diverged: state diverged "
            "at step 31 of 'example' (last finite index 30)\n"
        )
        assert not (tmp_path / "sweep.json").exists()

    def test_nan_epsilon_is_a_domain_error(self, tmp_path, capsys):
        # JSON's NaN used to pass as a level and print worst=0, all_within=True.
        payload = case1_config(
            analysis={
                "grid": {"scale": "log", "low": 2.0, "high": 1000.0, "points": 5},
                "epsilon": math.nan,
            },
        )
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: analysis.epsilon must be a nonnegative number, got nan\n"
        )
        assert not (tmp_path / "sweep.json").exists()

    def test_signed_grid_described_by_magnitude(self, tmp_path):
        payload = case1_config(
            analysis={
                "grid": {"scale": "log", "low": 2.0, "high": 1000.0, "points": 5, "signed": True},
            },
        )
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "sweep.json").read_text())
        assert result["grid_description"] == "10 initial conditions, |x0| in [2, 1000]"


class TestTable1Command:
    def test_writes_csv_and_json(self, tmp_path):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        rows = [
            Table1Row.from_dict(d)
            for d in json.loads((tmp_path / "table1.json").read_text())
        ]
        assert [r.k_star_recomputed for r in rows] == [19, 258, 1359, 7815]
        assert [r.discrepancy for r in rows] == [False, False, False, True]
        csv_rows = list(csv.reader((tmp_path / "table1.csv").open()))
        assert csv_rows[0][0] == "case_id"
        assert len(csv_rows) == 1 + 4 * 5  # four cases, five epsilons each

    def test_format_flag_selects_csv_only(self, tmp_path):
        assert main(["table1", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert not (tmp_path / "table1.json").exists()

    def test_discrepancy_note_printed(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "case4: K*=7815 (published 7814)" in out
        assert "differs by one" in out


class TestSubcommandFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "x.json", "--format", "csv"],
            ["bound", "--config", "x.json", "--seed", "3"],
            ["sweep", "--config", "x.json", "--seed", "3"],
        ],
    )
    def test_flags_only_where_they_apply(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_outputs_across_runs(self, tmp_path):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 11},
        )
        payload["analysis"]["k_max"] = 50
        cfg = write_config(tmp_path, payload)
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert main(["table1", "--out", str(d)]) == 0
            assert main(["simulate", "--config", cfg, "--out", str(d)]) == 0
            assert main(["attract", "--config", cfg, "--out", str(d)]) == 0
        for name in ("table1.csv", "table1.json", "simulate.csv", "attract.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    # sha256 of check.json: mixed and perturbed as written before the grid
    # scans were batched, the others as written before reports kept their
    # violations as columns.  Run-to-run comparisons cannot see a last-bit
    # change that every run makes alike; a pinned digest can.
    PINNED_CHECK_DIGESTS = {
        "grid2d": "9e38d9f24df9717e6ef6d22c44301c8d3c629ab426048b75fa7d22c753a1af8a",
        "mixed": "2ff6ec68f1b26a0e9ace5b421d9096abdeb88d473477596cd69c69c1ff4ca618",
        "orbit": "5282077bae9cb70768f857da40c643ac701f8841096a0da002ea26870ba47384",
        "overflow": "e70f0c492c6711e336c5ddcb28c871cc14354065cf6cfd0ef2e39747c881453d",
        "perturbed": "542aff69a84054f3564ca9f545fe8a5b9445bf98f8eb03132096f4f0b2ae1267",
    }
    PINNED_CHECK_CONFIGS = {
        "perturbed": {
            "schema": 1,
            "system": {"builtin": "example", "case": 1},
            "lyapunov": {"form": "abs"},
            "gains": {"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            "perturbation": {"delta0": 0.05, "generator": "radial"},
            "analysis": {
                "grid": {"scale": "log", "low": 0.001, "high": 10000,
                         "points": 2001, "signed": True},
                "tolerance": 1e-12,
            },
        },
        # Violations keyed by step: x -> 0.9 R x with R a rotation; the
        # decrement fails while ||x|| > 100 and again once ||x|| < 0.01.
        "orbit": {
            "schema": 1,
            "system": {"affine": {"matrix": [[0.6, -0.3, 0.6], [0.6, 0.6, -0.3],
                                             [-0.3, 0.6, 0.6]],
                                  "offset": [0.0, 0.0, 0.0]}},
            "lyapunov": {"form": "abs"},
            "gains": {"alpha": 0.01, "beta": 0.001, "r1": 0.5, "r2": 2.0},
            "analysis": {"x0": [300.0, -400.0, 1200.0], "k_max": 300, "tolerance": 1e-12},
        },
        # ||x||^3 overflows near the top of the grid: NaN and inf residuals,
        # max_residual NaN.
        "overflow": {
            "schema": 1,
            "system": {"builtin": "example", "case": 1},
            "lyapunov": {"form": "poly", "coefficients": [1.0, 1.0, 1.0]},
            "gains": {"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            "analysis": {"grid": {"scale": "log", "low": 0.01, "high": 1e150, "points": 41}},
        },
    }

    @pytest.mark.parametrize("scenario", sorted(PINNED_CHECK_DIGESTS))
    def test_check_report_digest_is_pinned(self, tmp_path, scenario):
        out = tmp_path / "out"
        if scenario == "grid2d":
            # Scenario grids are 1-D, so a 2-D grid scan is written directly.
            axis = np.linspace(-2.95, 2.95, 60)
            grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            report = scan_conditions(
                affine_system([[0.5, 0.1], [0.0, 0.4]]), square_candidate(2),
                FixedTimeGains(0.5, 0.1, 0.5, 2.0), grid, v_rhs=abs_candidate(2),
            )
            out.mkdir()
            cli._write_json(out / "check.json", report)
        else:
            if scenario == "mixed":
                cfg = str(Path(__file__).resolve().parents[1] / "configs" / "case1_check_mixed.json")
            else:
                cfg = write_config(tmp_path, self.PINNED_CHECK_CONFIGS[scenario])
            assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "check.json").read_bytes()).hexdigest()
        assert digest == self.PINNED_CHECK_DIGESTS[scenario]

    # sha256 of CSV and attract outputs as written before the CSV writer
    # took columns and uniform_ball drew a block of steps at a time: a 1-D
    # uniform_ball orbit across two 128-step blocks, a radial orbit, a 2-D
    # uniform_ball orbit across a block edge, table1.csv, and one attract
    # run with its trade-off table.
    PINNED_OUTPUT_DIGESTS = {
        "ball1d/simulate.csv": "f5220d37e4c135c1f5b86f3cc1bdd0b1bd55bbaee626d93098b509e6f2d21e06",
        "radial/simulate.csv": "63014c0406639f58cb5f177e32735948b1dd7906b555f39e002981d6897f4e2b",
        "ball2d/simulate.csv": "eb8b8d82d6fc33ec2fad35a45e7c7f24a916fdf7b43f0cb18f5fe194183006b2",
        "table1/table1.csv": "ee146ddb989004499f0f8ffa21b7e1ae9525ea3fcb38297aa0018e26c3603539",
        "attract/attract.json": "9724db1f8663d2907c583e071671125e404b19c83f33489a0badcc1bf6ddd2fd",
        "attract/tradeoff.json": "4fa628d0a35ff8638570ef8a36d0a3056af73993d0b0819cb2ee3cfc321f3cdc",
    }
    PINNED_OUTPUT_CONFIGS = {
        "ball1d": ("simulate", case1_config(
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 11},
            analysis={"x0": 1500.0, "k_max": 300},
        )),
        "radial": ("simulate", case1_config(
            lyapunov={"form": "square"},
            perturbation={"delta0": 0.05, "generator": "radial"},
            analysis={"x0": -1500.0, "k_max": 40},
        )),
        "ball2d": ("simulate", {
            "schema": 1,
            "system": {"affine": {"matrix": [[0.5, 0.1], [0.0, 0.4]]}},
            "perturbation": {"delta0": 0.1, "generator": "uniform_ball", "seed": 4},
            "analysis": {"x0": [3.0, -2.0], "k_max": 150},
        }),
        "attract": ("attract", case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 5},
            analysis={"x0": 1500.0, "k_max": 300, "m_values": [1.25, 1.5, 2, 3, 4, 8]},
        )),
    }

    @pytest.mark.parametrize("output", sorted(PINNED_OUTPUT_DIGESTS))
    def test_output_digest_is_pinned(self, tmp_path, output):
        scenario, name = output.split("/")
        out = tmp_path / scenario
        if scenario == "table1":
            assert main(["table1", "--format", "csv", "--out", str(out)]) == 0
        else:
            command, payload = self.PINNED_OUTPUT_CONFIGS[scenario]
            cfg = write_config(tmp_path, payload)
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == self.PINNED_OUTPUT_DIGESTS[output]

    def test_seed_override_changes_orbit(self, tmp_path):
        payload = case1_config(
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 11},
        )
        cfg = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "s11", tmp_path / "s12"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "12"]) == 0
        assert (out_a / "simulate.csv").read_bytes() != (out_b / "simulate.csv").read_bytes()


class TestPinnedConfigCalls:
    """Every command on every ``configs/*.json``, and ``table1`` in each
    format, as the CLI ran them before commands returned their outputs to
    ``main``: exit code, stdout and stderr (``--out`` shown as ``<OUT>``),
    and the sha256 of each file written, or None where no ``--out``
    directory was made."""

    PINNED_CALLS = {
        "attract case1_attract": (
            0,
            "wrote <OUT>/tradeoff.json (3 rows)\n"
            "wrote <OUT>/attract.json (branch=V0_GT_1, B=0.659353, K_star=38, "
            "entry=6)\n",
            "",
            {
                "attract.json": "9724db1f8663d2907c583e071671125e404b19c83f33489a0badcc1bf6ddd2fd",
                "tradeoff.json": "cea3e710135c2e6bb2cb4d93cac44d97f951ff4bae81f22276c37f8981a1c58a",
            },
        ),
        "attract case1_check_mixed": (
            2,
            "",
            "error: attract requires gains, lyapunov, and perturbation\n",
            None,
        ),
        "attract case1_simulate": (
            2,
            "",
            "error: attract requires gains, lyapunov, and perturbation\n",
            None,
        ),
        "attract case1_sweep": (
            2,
            "",
            "error: attract requires gains, lyapunov, and perturbation\n",
            None,
        ),
        "bound case1_attract": (
            0,
            "wrote <OUT>/bound.json (K1_bound=9, K2_gap=10, K_star=19, "
            "example_K_star=19, perturbed_K_star=38)\n",
            "",
            {
                "bound.json": "2aca8d3cf7347b3e45d054d027bf97a7880fe885d03f339dffb88164a9f90263",
            },
        ),
        "bound case1_check_mixed": (
            0,
            "wrote <OUT>/bound.json (K1_bound=9, K2_gap=10, K_star=19, "
            "example_K_star=19)\n",
            "",
            {
                "bound.json": "a71e4e38799413ea0ddd1847652a1040dce7f698facce739a1dbc7f99de4e28b",
            },
        ),
        "bound case1_simulate": (
            0,
            "wrote <OUT>/bound.json (example_K_star=19)\n",
            "",
            {
                "bound.json": "9befdf760a2c6d019604aa47dae7e294feb292848bd1731462373b5a8c56eb52",
            },
        ),
        "bound case1_sweep": (
            0,
            "wrote <OUT>/bound.json (example_K_star=19)\n",
            "",
            {
                "bound.json": "9befdf760a2c6d019604aa47dae7e294feb292848bd1731462373b5a8c56eb52",
            },
        ),
        "check case1_attract": (
            0,
            "wrote <OUT>/check.json (PERTURBED_DECREMENT: 99 violations over "
            "100 points)\n",
            "",
            {
                "check.json": "f98e4b0592e8df4208f64bf7d1b677c58bbd8e5bbfee03c51baf81ff7cbd0cf9",
            },
        ),
        "check case1_check_mixed": (
            0,
            "wrote <OUT>/check.json (FT_MIXED: 5469 violations over 10001 "
            "points)\n",
            "",
            {
                "check.json": "2ff6ec68f1b26a0e9ace5b421d9096abdeb88d473477596cd69c69c1ff4ca618",
            },
        ),
        "check case1_simulate": (
            2,
            "",
            "error: check requires lyapunov and gains sections\n",
            None,
        ),
        "check case1_sweep": (
            2,
            "",
            "error: check requires lyapunov and gains sections\n",
            None,
        ),
        "simulate case1_attract": (
            0,
            "wrote <OUT>/simulate.csv (101 rows, truncated=True)\n",
            "",
            {
                "simulate.csv": "d79c6a87fb78bd8e4fd726020eff8a395399719385e1a08c862edb8d22b9e4d9",
            },
        ),
        "simulate case1_check_mixed": (
            2,
            "",
            "error: simulate requires analysis.x0\n",
            None,
        ),
        "simulate case1_simulate": (
            0,
            "wrote <OUT>/simulate.csv (41 rows, truncated=True)\n",
            "",
            {
                "simulate.csv": "de5fe143f708278ae71c5e797dc28729d286bc10821f0e324e60eab84ee96a57",
            },
        ),
        "simulate case1_sweep": (
            2,
            "",
            "error: simulate requires analysis.x0\n",
            None,
        ),
        "sweep case1_attract": (
            2,
            "",
            "error: sweep requires analysis.grid\n",
            None,
        ),
        "sweep case1_check_mixed": (
            0,
            "wrote <OUT>/sweep.json (worst=7 at x0=7174.638108861402, "
            "bound=19, all_within=True)\n",
            "",
            {
                "sweep.json": "ae6bd56c644e5231ca40115a7a33e7d66f084b3c2221838b230d896e71c09d27",
            },
        ),
        "sweep case1_simulate": (
            2,
            "",
            "error: sweep requires analysis.grid\n",
            None,
        ),
        "sweep case1_sweep": (
            0,
            "wrote <OUT>/sweep.json (worst=16 at x0=524288.0000000002, "
            "bound=19, all_within=True)\n",
            "",
            {
                "sweep.json": "33262b24885d794187fac6f8a5b082e9735d4ab408ff0295f0cb2c1381cac16d",
            },
        ),
        "table1": (
            0,
            "wrote <OUT>/table1.json\n"
            "wrote <OUT>/table1.csv\n"
            "case1: K*=19 (published 19)\n"
            "case2: K*=258 (published 258)\n"
            "case3: K*=1359 (published 1359)\n"
            "case4: K*=7815 (published 7814)  (recomputation differs by one; "
            "both values reported)\n",
            "",
            {
                "table1.csv": "ee146ddb989004499f0f8ffa21b7e1ae9525ea3fcb38297aa0018e26c3603539",
                "table1.json": "092cf7bad3ab3d2b9ffef423138431a354464efde38322068a17c2efebf01cdc",
            },
        ),
        "table1 --format csv": (
            0,
            "wrote <OUT>/table1.csv\n"
            "case1: K*=19 (published 19)\n"
            "case2: K*=258 (published 258)\n"
            "case3: K*=1359 (published 1359)\n"
            "case4: K*=7815 (published 7814)  (recomputation differs by one; "
            "both values reported)\n",
            "",
            {
                "table1.csv": "ee146ddb989004499f0f8ffa21b7e1ae9525ea3fcb38297aa0018e26c3603539",
            },
        ),
        "table1 --format json": (
            0,
            "wrote <OUT>/table1.json\n"
            "case1: K*=19 (published 19)\n"
            "case2: K*=258 (published 258)\n"
            "case3: K*=1359 (published 1359)\n"
            "case4: K*=7815 (published 7814)  (recomputation differs by one; "
            "both values reported)\n",
            "",
            {
                "table1.json": "092cf7bad3ab3d2b9ffef423138431a354464efde38322068a17c2efebf01cdc",
            },
        ),
    }

    def test_every_config_is_pinned(self):
        stems = {call.split()[1] for call in self.PINNED_CALLS if not call.startswith("table1")}
        assert stems == {path.stem for path in CONFIGS.glob("*.json")}

    @pytest.mark.parametrize("call", sorted(PINNED_CALLS))
    def test_call_is_pinned(self, tmp_path, capsys, call):
        command, *rest = call.split()
        if command != "table1":
            rest = ["--config", str(CONFIGS / f"{rest[0]}.json")]
        out = tmp_path / "out"
        code = main([command, *rest, "--out", str(out)])
        captured = capsys.readouterr()
        files = None
        if out.exists():
            files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        shown = (captured.out.replace(str(out), "<OUT>"), captured.err.replace(str(out), "<OUT>"))
        assert (code, *shown, files) == self.PINNED_CALLS[call]


class TestEstimatedLipschitz:
    def test_attract_estimates_lv_from_grid(self, tmp_path):
        # square candidate has no closed-form global constant; a grid over
        # [0.01, 2] gives the local slope sup, about 2 * 2 = 4.
        payload = case1_config(
            lyapunov={"form": "square"},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.01, "generator": "uniform_ball", "seed": 2},
        )
        payload["analysis"].update(
            {"k_max": 60, "grid": {"scale": "linear", "low": 0.01, "high": 2.0, "points": 50}}
        )
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "attract.json").read_text())
        assert report["lv_source"] == "estimated"

    def test_flat_grid_on_a_2d_system_is_config_error(self, tmp_path, capsys):
        # The slope of a 2-D candidate cannot be estimated along a line.
        payload = {
            "schema": 1,
            "system": {"affine": {"matrix": [[0.5, 0.1], [0.0, 0.4]]}},
            "lyapunov": {"form": "square"},
            "gains": {"alpha": 0.5, "beta": 0.5, "r1": 0.5, "r2": 2.0},
            "perturbation": {"delta0": 0.05, "generator": "uniform_ball", "seed": 3},
            "analysis": {"x0": [1.0, 2.0], "k_max": 30,
                         "grid": {"scale": "log", "low": 0.01, "high": 9, "points": 50}},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: flat grid given for a 2-dimensional system\n"
        assert not (tmp_path / "attract.json").exists()

    def test_infinite_estimate_is_domain_error(self, tmp_path, capsys):
        # V = x^2 overflows on a grid reaching 1e200, so the estimate is inf;
        # a leaked RuntimeWarning would fail the suite.
        payload = case1_config(
            lyapunov={"form": "square"},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 3},
        )
        payload["analysis"].update(
            {"x0": 3.5, "k_max": 30,
             "grid": {"scale": "log", "low": 0.01, "high": 1e200, "points": 50}}
        )
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: lipschitz_lv=inf must be finite and positive\n"
        assert not (tmp_path / "attract.json").exists()

    def test_attract_without_lv_or_grid_is_config_error(self, tmp_path):
        payload = case1_config(
            lyapunov={"form": "square"},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.01, "generator": "uniform_ball", "seed": 2},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestMoreConfigSurfaces:
    def test_affine_system_with_poly_candidate(self, tmp_path):
        payload = {
            "schema": 1,
            "system": {"affine": {"matrix": [[0.5, 0.1], [0.0, 0.4]]}},
            "lyapunov": {"form": "poly", "coefficients": [0.0, 1.0]},
            "analysis": {"x0": [4.0, -3.0], "k_max": 20},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "simulate.csv").open()))
        assert rows[0] == ["k", "x_1", "x_2", "V"]
        assert float(rows[1][3]) == pytest.approx(16.0 + 9.0)  # ||x||^2

    def test_explicit_example_params(self, tmp_path):
        payload = {
            "schema": 1,
            "system": {
                "builtin": "example",
                "params": {"aprime": 0.5, "bprime": 0.2, "r1prime": 0.3, "r2prime": 1.2},
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "bound.json").read_text())
        assert out == {"example_K_star": 258}

    def test_constant_generator_config(self, tmp_path):
        payload = {
            "schema": 1,
            "system": {"affine": {"matrix": [[1.0]]}},
            "perturbation": {"delta0": 0.05, "generator": "constant", "vector": [0.04]},
            "analysis": {"x0": 0.0, "k_max": 3},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "simulate.csv").open()))
        assert [float(r[1]) for r in rows[1:]] == pytest.approx([0.0, 0.04, 0.08, 0.12])

    def test_radial_generator_config(self, tmp_path):
        payload = {
            "schema": 1,
            "system": {"affine": {"matrix": [[1.0]]}},
            "perturbation": {"delta0": 0.1, "generator": "radial"},
            "analysis": {"x0": 1.0, "k_max": 4},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(csv.reader((tmp_path / "simulate.csv").open()))
        xs = [float(r[1]) for r in rows[1:]]
        assert all(b > a for a, b in zip(xs, xs[1:]))  # pushed outward each step

    def test_unknown_generator_rejected(self, tmp_path):
        payload = {
            "schema": 1,
            "system": {"affine": {"matrix": [[1.0]]}},
            "perturbation": {"delta0": 0.1, "generator": "gusts"},
            "analysis": {"x0": 1.0, "k_max": 4},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_output_filename_override(self, tmp_path):
        payload = case1_config(output={"filename": "orbit.csv"})
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "orbit.csv").exists()

    def test_signed_grid_check(self, tmp_path):
        # Signed grids mirror the positive points; odd symmetry makes the
        # violation picture symmetric as well.
        payload = case1_config(
            lyapunov={"form": "square", "rhs": {"form": "abs"}},
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            analysis={
                "grid": {"scale": "log", "low": 0.01, "high": 10.0, "points": 51, "signed": True}
            },
        )
        cfg = write_config(tmp_path, payload)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = ConditionReport.from_dict(json.loads((tmp_path / "check.json").read_text()))
        assert report.checked_points == 102
        wheres = [v.where[0] for v in report.violations]
        assert any(w < 0 for w in wheres) and any(w > 0 for w in wheres)
        negs = sorted(-w for w in wheres if w < 0)
        poss = sorted(w for w in wheres if w > 0)
        assert negs == pytest.approx(poss)


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is a test dependency; loading it would add to every CLI start.
    src = str(Path(fixsettle.__file__).resolve().parents[1])
    code = "import sys, fixsettle.cli; print('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_python_m_fixsettle_runs_the_cli(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "fixsettle", "check",
            "--config", str(root / "configs" / "case1_check_mixed.json"), "--out", str(tmp_path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(f"wrote {tmp_path / 'check.json'} (FT_MIXED: ")
    assert (tmp_path / "check.json").is_file()


def test_numpy_random_not_imported_to_load_a_perturbed_scenario(tmp_path):
    # numpy imports numpy.random lazily, and that import is a large share of
    # a CLI call's set-up; building a uniform_ball source must not pay it,
    # nor import the module that seeds its draws.
    cfg = write_config(
        tmp_path,
        case1_config(perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 7}),
    )
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = (
        "import sys, fixsettle.cli\n"
        "from fixsettle.config import load_config\n"
        f"load_config({cfg!r})\n"
        "print('numpy.random' in sys.modules, 'fixsettle._pcg64' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False False\n"


# Floats a JSON writer must spell out: NaN, both infinities, both zeros,
# subnormals and the extremes, plus whatever else Hypothesis draws.
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225e-308,
                     1.7976931348623157e308, 1e16, 0.1]),
    st.floats(),
)


@st.composite
def _reports(draw):
    """Reports with any column content: int step indices or n-D states,
    every violation kind, and any floats."""
    k = draw(st.integers(0, 12))
    if draw(st.booleans()):
        where = np.array(draw(st.lists(st.integers(0, 2 ** 62), min_size=k, max_size=k)),
                         dtype=np.int64)
    else:
        n = draw(st.integers(1, 4))
        where = np.array(draw(st.lists(_FLOATS, min_size=k * n, max_size=k * n)),
                         dtype=float).reshape(k, n)
    return ConditionReport(
        condition_id=draw(st.sampled_from(list(ConditionId))),
        checked_points=draw(st.integers(0, 10 ** 6)),
        where=where,
        residual=draw(st.lists(_FLOATS, min_size=k, max_size=k)),
        check=draw(st.lists(st.sampled_from(["positivity", "decrement"]),
                            min_size=k, max_size=k)),
        max_residual=draw(_FLOATS),
        tolerance=draw(_FLOATS),
        violation_intervals=draw(st.none() | st.lists(st.tuples(_FLOATS, _FLOATS), max_size=2)
                                 .map(tuple)),
        value_zero_points=tuple(draw(st.lists(st.tuples(_FLOATS), max_size=2))),
    )


class TestReportWriter:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report=_reports(), chunk=st.integers(1, 5))
    def test_columns_write_the_bytes_of_json_dumps(self, tmp_path, monkeypatch, report, chunk):
        # Small chunks put chunk boundaries inside the drawn reports.
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        path = tmp_path / "check.json"
        cli._write_json(path, report)
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_large_report_spans_chunks(self, tmp_path):
        rng = np.random.default_rng(3)
        k = 2 * cli._CHUNK + 7
        report = ConditionReport(
            condition_id=ConditionId.FT_MIXED, checked_points=k,
            where=rng.standard_normal((k, 2)) * 10.0 ** rng.integers(-300, 300, (k, 1)),
            residual=rng.standard_normal(k), check=("decrement",) * k,
            max_residual=1.0, tolerance=1e-12,
        )
        cli._write_json(tmp_path / "check.json", report)
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "check.json").read_text() == expected


class TestUnusableInputsAndOutputs:
    """Inputs that can only fail and output paths that cannot be written
    exit 2 with a message naming the key or path, and write nothing."""

    def test_attract_filename_that_the_tradeoff_table_would_replace(self, tmp_path, capsys):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 5},
            output={"filename": "tradeoff.json"},
        )
        payload["analysis"]["m_values"] = [1.5, 2.0]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["attract", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: output.filename 'tradeoff.json' ")
        assert not out.exists()

    def test_attract_may_name_its_report_tradeoff_without_m_values(self, tmp_path):
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 5},
            output={"filename": "tradeoff.json"},
        )
        cfg = write_config(tmp_path, payload)
        assert main(["attract", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "branch" in json.loads((tmp_path / "tradeoff.json").read_text())

    @pytest.mark.parametrize("command", ["simulate", "table1"])
    def test_out_naming_an_existing_file(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, case1_config())
        taken = tmp_path / "taken"
        taken.write_text("keep")
        args = [command, "--out", str(taken)] + (["--config", cfg] if command != "table1" else [])
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: cannot use {taken} as the output directory: File exists\n"
        )
        assert taken.read_text() == "keep"

    def test_filename_naming_an_existing_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, case1_config(output={"filename": "orbit"}))
        (tmp_path / "out" / "orbit").mkdir(parents=True)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / 'out' / 'orbit'}: Is a directory\n"
        )
        assert list((tmp_path / "out" / "orbit").iterdir()) == []

    @pytest.mark.parametrize("x0, key", [
        (math.nan, "analysis.x0"), (math.inf, "analysis.x0"), (-math.inf, "analysis.x0"),
        ([1.0, math.nan], "analysis.x0[1]"),
    ])
    def test_initial_state_must_be_finite(self, tmp_path, capsys, x0, key):
        # Each used to exit 3 with "state diverged at step 1".
        system = {"affine": {"matrix": [[0.5, 0.0], [0.0, 0.5]]}} if isinstance(x0, list) else None
        payload = case1_config()
        if system:
            payload["system"] = system
        payload["analysis"]["x0"] = x0
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        bad = x0[1] if isinstance(x0, list) else x0
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got {bad!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("high", math.inf), ("high", math.nan), ("low", -math.inf), ("low", math.nan),
    ])
    def test_grid_ends_must_be_finite(self, tmp_path, capsys, key, value):
        # An infinite end used to exit 3 and leak numpy's RuntimeWarning.
        grid = {"scale": "linear", "low": 2.0, "high": 100.0, "points": 5}
        grid[key] = value
        cfg = write_config(tmp_path, case1_config(analysis={"grid": grid}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: grid.{key} must be a finite number, got {value!r}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_failing_tradeoff_row_writes_nothing(self, tmp_path, capsys):
        # The report's own level is finite at m2 = 2; the table's row at
        # m = 1e6 overflows.  attract.json used to be written before that.
        payload = case1_config(
            gains={"alpha": 0.01, "beta": 0.25, "r1": 0.01, "r2": 2.2},
            perturbation={"delta0": 0.001, "generator": "uniform_ball", "seed": 5},
            analysis={"x0": 0.5, "k_max": 20, "m_values": [2.0, 1e6]},
        )
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["attract", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: attractive level B overflows float64 on branch V0_LE_1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "bound", "attract", "check"])
    @pytest.mark.parametrize("key, value", [
        ("analysis.m_values[1]", 0.5), ("analysis.m_values[0]", math.inf),
        ("analysis.m_values[1]", math.nan), ("m1", math.inf), ("m1", 1.0),
        ("m2", math.nan), ("m2", -3),
    ])
    def test_slack_constants_are_finite_and_above_one(self, tmp_path, capsys, command, key, value):
        # m_values [2.0, 0.5] made attract write attract.json and then exit 2
        # on "m1=0.5 must exceed 1", while bound exited 0; m1 Infinity gave
        # "bound parameter must be finite" in attract and bound only.
        payload = case1_config(
            gains={"alpha": 0.64, "beta": 0.25, "r1": 0.8, "r2": 2.2},
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 5},
            analysis={"x0": 50.0, "k_max": 40, "m_values": [2.0, 3.0]},
        )
        if key.startswith("analysis."):
            payload["analysis"]["m_values"][int(key[-2])] = value
        else:
            payload[key] = value
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {key} must be a finite number above 1, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("rhs", [False, True])
    @pytest.mark.parametrize("value", [math.nan, 0, -1.0, math.inf])
    def test_lipschitz_is_finite_and_positive(self, tmp_path, capsys, rhs, value):
        # NaN, 0 and -1 were reported as "lipschitz_LV must be positive when
        # given"; Infinity passed until attract or bound needed it.
        lyapunov = {"form": "abs"}
        if rhs:
            lyapunov["rhs"] = {"form": "abs", "lipschitz": value}
        else:
            lyapunov["lipschitz"] = value
        cfg = write_config(tmp_path, case1_config(lyapunov=lyapunov))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        key = "lyapunov.rhs.lipschitz" if rhs else "lyapunov.lipschitz"
        assert capsys.readouterr() == (
            "", f"error: {key} must be a finite positive number, got {value!r}\n"
        )
        assert not out.exists()

    # Every command runs this scenario (exit 0); check scans its grid.
    LEVELS_SCENARIO = case1_config(
        gains=_GAINS,
        perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 5},
        analysis={"x0": 50.0, "k_max": 40, "m_values": [2.0, 3.0],
                  "grid": {"scale": "log", "low": 2.0, "high": 100.0, "points": 11}},
    )

    @pytest.mark.parametrize("command", ["simulate", "check", "bound", "attract", "sweep"])
    @pytest.mark.parametrize("key, value, rule", [
        ("stop_epsilon", -1.0, "a nonnegative number"),
        ("stop_epsilon", math.nan, "a nonnegative number"),
        ("epsilon", -1.0, "a nonnegative number"),
        ("epsilon", math.nan, "a nonnegative number"),
        ("epsilon_list", [1.0, -0.5], "a nonnegative number"),
        ("epsilon_list", [math.nan], "a nonnegative number"),
        ("tolerance", math.inf, "a finite number"),
        ("tolerance", -math.inf, "a finite number"),
        ("tolerance", math.nan, "a finite number"),
    ])
    def test_levels_and_tolerance_name_their_key(self, tmp_path, capsys, command, key, value, rule):
        # Each failed in some commands only, and without naming its key:
        # stop_epsilon in simulate and attract, epsilon and epsilon_list in
        # sweep, tolerance in check; the other commands exited 0.
        payload = json.loads(json.dumps(self.LEVELS_SCENARIO))
        payload["analysis"][key] = value
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        if isinstance(value, list):
            key, value = f"{key}[{len(value) - 1}]", value[-1]
        assert capsys.readouterr() == (
            "", f"error: analysis.{key} must be {rule}, got {value!r}\n"
        )
        assert not out.exists()


def _rowwise_csv(path: Path, header, rows):
    """The row-by-row writer the column writer replaced: every cell through
    ``_fmt``, one ``writerow`` per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(v) for v in row])


_CSV_TEXT = st.text(st.sampled_from(list('ab ,"\n\r;é\'')) | st.characters(blacklist_categories=("Cs",)),
                    max_size=6)
# Cells of a column that is not a float array: anything _fmt takes.
_CELLS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70), st.booleans(), st.none(), _FLOATS, _CSV_TEXT,
    st.builds(np.float64, _FLOATS), st.builds(np.int64, st.integers(-(2 ** 63), 2 ** 63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
_CSV_FLOATS = _FLOATS | st.sampled_from([1e308, -1e308, 2.2250738585072014e-308, -5e-324])


@st.composite
def _csv_columns(draw):
    """Columns of one length: float arrays, int and bool arrays, ranges and
    lists of mixed cells."""
    k = draw(st.integers(0, 8))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["float", "int", "bool", "range", "cells"]))
        if kind == "float":
            columns.append(np.array(draw(st.lists(_CSV_FLOATS, min_size=k, max_size=k)),
                                    dtype=float))
        elif kind == "int":
            columns.append(np.array(draw(st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1),
                                                  min_size=k, max_size=k)), dtype=np.int64))
        elif kind == "bool":
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)),
                                    dtype=bool))
        elif kind == "range":
            columns.append(range(k))
        else:
            columns.append(draw(st.lists(_CELLS, min_size=k, max_size=k)))
    header = draw(st.lists(_CSV_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


class TestCsvWriter:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=_csv_columns())
    def test_columns_write_the_bytes_of_the_rowwise_writer(self, tmp_path, table):
        header, columns = table
        cli._write_csv(tmp_path / "columns.csv", header, columns)
        _rowwise_csv(tmp_path / "rows.csv", header, zip(*columns))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _small_simulate(tmp_path: Path) -> str:
    return write_config(tmp_path, case1_config(
        perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 11},
        analysis={"x0": 1500.0, "k_max": 5},
    ), "small.json")


class TestParserReuse:
    """``main`` builds its argparse parser once per process, on first use."""

    def test_import_builds_none_and_five_calls_build_one(self, tmp_path):
        src = str(Path(fixsettle.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, sys\n"
            "import fixsettle.cli as cli\n"
            "built = [cli.build_parser.cache_info().misses]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for _ in range(5):\n"
            f"        assert cli.main(['simulate', '--config', {_small_simulate(tmp_path)!r},\n"
            f"                         '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "built.append(cli.build_parser.cache_info().misses)\n"
            "print(*built)\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "0 1\n"

    def test_usage_error_between_calls_changes_nothing_after_it(self, tmp_path, capsys):
        cfg = _small_simulate(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--seed", "12"]) == 0
        for bad in (["simulate"], ["simulate", "--config", cfg, "--format", "csv"], ["nope"]):
            with pytest.raises(SystemExit) as err:
                main(bad)
            assert err.value.code == 2
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].replace("/a/", "/b/") == printed[2]
        a, b, s = ((tmp_path / d / "simulate.csv").read_bytes() for d in "abs")
        assert a == b  # neither the earlier --seed nor the errors carried over
        assert s != a

    def test_replaced_command_is_the_one_run(self, tmp_path, monkeypatch, capsys):
        # The replacement gets the raw args (no config is loaded: x.json
        # does not exist), and main writes and prints what it returns.
        seen = []

        def replaced(args):
            seen.append(args)
            return [("x.json", {"config": args.config}, " (replaced)")], ["done"]

        monkeypatch.setattr(cli, "cmd_simulate", replaced)
        out = tmp_path / "out"
        assert main(["simulate", "--config", "x.json", "--out", str(out)]) == 0
        assert [type(args) for args in seen] == [argparse.Namespace]
        assert seen[0].config == "x.json"
        assert json.loads((out / "x.json").read_text()) == {"config": "x.json"}
        assert capsys.readouterr().out == f"wrote {out / 'x.json'} (replaced)\ndone\n"


class TestCommandPipeline:
    """Commands compute and return ``(outputs, lines)``; ``main`` alone makes
    the ``--out`` directory, writes and prints."""

    EFFECTS = {"print", "open", "_write_json", "_write_csv", "_out_dir", "mkdir"}

    @staticmethod
    def _calls(function):
        """(callee name, call node) of every call in ``function``."""
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                func = node.func
                yield (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)), node

    def test_only_main_makes_the_directory_writes_and_prints(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert sorted(n for n in functions if n.startswith("cmd_")) == sorted(
            "cmd_" + c for c in cli.COMMANDS
        )
        # Neither a command nor a function of this module that it calls.
        reached, todo = set(), [n for n in functions if n.startswith("cmd_")]
        while todo:
            name = todo.pop()
            reached.add(name)
            for callee, _ in self._calls(functions[name]):
                assert callee not in self.EFFECTS, f"{name} calls {callee}"
                if callee in functions and callee not in reached:
                    todo.append(callee)
        sites = []
        for name, function in functions.items():
            for callee, call in self._calls(function):
                wrote = callee == "print" and any(
                    isinstance(c, ast.Constant) and str(c.value).startswith("wrote ")
                    for c in ast.walk(call)
                )
                if callee in ("_out_dir", "_write_json", "_write_csv") or wrote:
                    sites.append((name, "wrote" if wrote else callee))
        assert sorted(sites) == [
            ("main", "_out_dir"), ("main", "_write_csv"), ("main", "_write_json"),
            ("main", "wrote"),
        ]

    @pytest.mark.parametrize("command, payload, code", [
        ("simulate", case1_config(perturbation=_RADIAL, analysis={"x0": 2e6, "k_max": 100}), 3),
        ("check", case1_config(gains=_GAINS, analysis={"x0": 2e6, "k_max": 100}), 3),
        ("check", case1_config(gains=_GAINS, analysis={
            "grid": {"scale": "linear", "low": 0.0, "high": 1.0, "points": 5}}), 2),
        ("bound", case1_config(gains={**_GAINS, "r2": 1.0000001}), 2),
        ("attract", case1_config(
            gains=_GAINS, perturbation=_RADIAL, analysis={"x0": 2e6, "k_max": 100}), 3),
        ("attract", case1_config(
            gains={**_GAINS, "alpha": 0.01, "r1": 0.001},
            perturbation={**_RADIAL, "delta0": 0.1},
            analysis={"x0": 0.5, "k_max": 20},
        ), 2),
        ("sweep", {
            "schema": 1,
            "system": {"builtin": "example", "case": 2},
            "analysis": {"grid": {"scale": "log", "low": 2e5, "high": 1e6, "points": 5}},
        }, 3),
        ("sweep", {
            "schema": 1,
            "system": {"affine": {"matrix": [[0.5]]}},
            "gains": {**_GAINS, "r2": 1.0000001},
            "analysis": {"grid": {"scale": "log", "low": 1.0, "high": 10.0, "points": 3}},
        }, 2),
    ], ids=[
        "simulate-diverges", "check-orbit-diverges", "check-grid-has-origin",
        "bound-overflows", "attract-diverges", "attract-level-overflows",
        "sweep-diverges", "sweep-bound-overflows",
    ])
    def test_failing_command_prints_and_writes_nothing(
        self, tmp_path, capsys, command, payload, code
    ):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()


def test_fresh_processes_match_in_process_calls(tmp_path, capsys):
    # The cached parser, the column writer and the command pipeline give a
    # later in-process call what a fresh `python -m fixsettle` process
    # gives: files, output, code.  The fresh process turns every warning
    # into an error, so a deprecation on a CLI path fails here.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    bad = write_config(tmp_path, case1_config(m1=0.5), "bad.json")
    calls = [
        ["simulate", "--config", str(CONFIGS / "case1_simulate.json")],
        ["simulate", "--config", _small_simulate(tmp_path)],
        ["attract", "--config", str(CONFIGS / "case1_attract.json")],
        ["table1"],
        ["simulate", "--config", bad],
        ["simulate"],
    ] + [
        [command, "--config", str(config)]
        for config in sorted(CONFIGS.glob("*.json"))
        for command in ("check", "bound", "sweep")
    ]
    assert main(["bound", "--config", str(CONFIGS / "case1_attract.json"),
                 "--out", str(tmp_path / "warm")]) == 0
    assert main(["table1", "--format", "json", "--out", str(tmp_path / "warm")]) == 0

    def outputs(out: Path) -> dict:
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}

    for i, argv in enumerate(calls):
        out = tmp_path / f"out{i}"
        argv = argv + ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fixsettle", *argv], env=env,
                              capture_output=True, text=True)
        fresh = (proc.returncode, proc.stdout, proc.stderr, outputs(out))
        for f in out.glob("*"):
            f.unlink()
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err, outputs(out)) == fresh, argv
