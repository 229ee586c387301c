import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from fixsettle.cli import main
from fixsettle.lyapunov import ConditionReport
from fixsettle.oracle import SweepResult, Table1Row
from fixsettle.perturbation import AttractivenessReport
from conftest import CASE1, mp_example_orbit


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

    # sha256 of check.json as written before the grid scans were batched.
    # Run-to-run comparisons cannot see a last-bit change that every run
    # makes alike; a pinned digest can.
    PINNED_CHECK_DIGESTS = {
        "mixed": "2ff6ec68f1b26a0e9ace5b421d9096abdeb88d473477596cd69c69c1ff4ca618",
        "perturbed": "542aff69a84054f3564ca9f545fe8a5b9445bf98f8eb03132096f4f0b2ae1267",
    }

    @pytest.mark.parametrize("scenario", sorted(PINNED_CHECK_DIGESTS))
    def test_check_report_digest_is_pinned(self, tmp_path, scenario):
        if scenario == "mixed":
            cfg = str(Path(__file__).resolve().parents[1] / "configs" / "case1_check_mixed.json")
        else:
            cfg = write_config(tmp_path, {
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
            })
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "check.json").read_bytes()).hexdigest()
        assert digest == self.PINNED_CHECK_DIGESTS[scenario]

    def test_seed_override_changes_orbit(self, tmp_path):
        payload = case1_config(
            perturbation={"delta0": 0.05, "generator": "uniform_ball", "seed": 11},
        )
        cfg = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "s11", tmp_path / "s12"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "12"]) == 0
        assert (out_a / "simulate.csv").read_bytes() != (out_b / "simulate.csv").read_bytes()


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
