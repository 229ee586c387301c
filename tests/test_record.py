"""Every report record's ``to_dict`` is plain JSON data.

``json.dumps`` then ``json.loads`` gives back the same dict, and every value
in it, at any depth, is a dict, list, str, int, float, bool or None: no
tuple, enum or array survives ``to_dict``.  Every field is written, derived
ones included.  Fields a record derives from its others are
``field(init=False)``, so no caller can pass a contradicting one, and they
follow the other fields.  ``encode`` is checked value by value, and
``sweep.json``'s fields by their JSON types.
"""

import dataclasses
import json
import math
from enum import Enum, IntEnum

import numpy as np
import pytest

from fixsettle import affine_system
from fixsettle.lyapunov import (
    ConditionId,
    ConditionReport,
    FixedTimeGains,
    LyapunovCandidate,
    Violation,
    abs_candidate,
    scan_conditions,
    scan_trajectory,
    square_candidate,
)
from fixsettle.oracle import (
    TABLE1_CASES,
    Lemma1TrialSummary,
    SweepResult,
    Table1Row,
    lemma1_randomized_trial,
    sweep_settling,
    table1_reproduce,
)
from fixsettle.perturbation import (
    BRANCH_HIGH,
    AttractivenessConfig,
    AttractivenessReport,
    analyze_attractiveness,
)
from fixsettle.record import Record, encode
from fixsettle.settling import (
    SettlingReport,
    analyze_settling,
    example_bound,
    gains_from_example,
)
from fixsettle.systems import simulate

GAINS = FixedTimeGains(0.5, 0.5, 0.5, 2.0)
DOUBLING = affine_system([[2.0]], name="doubling")
HALVING = affine_system([[0.5]], name="halving")


def grid_1d():
    # V = x^2 (x - 1)^2 vanishes at x = 1, so value_zero_points is not empty.
    dip = LyapunovCandidate("dip", lambda s: s[:, 0] ** 2 * (s[:, 0] - 1.0) ** 2)
    report = scan_conditions(DOUBLING, dip, GAINS, [-2.0, 0.5, 1.0, 2.0])
    assert report.value_zero_points == ((1.0,),)
    return report


def grid_2d():
    system = affine_system([[2.0, 0.0], [0.0, 0.5]])
    grid = [[1.0, 0.0], [0.0, 1.0], [-1.5, 2.5]]
    return scan_conditions(system, abs_candidate(2), GAINS, grid)


def orbit():
    return scan_trajectory(DOUBLING, square_candidate(), GAINS, simulate(DOUBLING, 1.0, 3))


def sweep():
    # Three steps leave the lower levels unreached, so the curve holds None.
    case = TABLE1_CASES[0]
    return sweep_settling(case.system(), [10.0, 1500.0], example_bound(*case.params()), k_max=3)


def attractiveness():
    case = TABLE1_CASES[0]
    cfg = AttractivenessConfig(
        gains=gains_from_example(*case.params()), lipschitz_lv=1.0, delta0=0.05,
        branch=BRANCH_HIGH,
    )
    return analyze_attractiveness(cfg, simulate(case.system(), 1500.0, 80), abs_candidate())


RECORDS = {
    "Violation-grid": (Violation, lambda: grid_1d().violations[0]),
    "Violation-orbit": (Violation, lambda: orbit().violations[-1]),
    "ConditionReport-grid-1d": (ConditionReport, grid_1d),
    "ConditionReport-grid-2d": (ConditionReport, grid_2d),
    "ConditionReport-orbit": (ConditionReport, orbit),
    "SweepResult": (SweepResult, sweep),
    "Table1Row": (Table1Row, lambda: table1_reproduce()[3]),
    "AttractivenessReport": (AttractivenessReport, attractiveness),
    "SettlingReport": (
        SettlingReport,
        lambda: analyze_settling(GAINS, simulate(HALVING, 4.0, 6), epsilon=0.5),
    ),
    "Lemma1TrialSummary": (Lemma1TrialSummary, lambda: lemma1_randomized_trial(20, seed=0)),
}


JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _plain(value) -> bool:
    """Whether ``value`` is built only of JSON types, exactly (not subclasses)."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return type(value) in JSON_TYPES


@pytest.mark.parametrize("cls, make", RECORDS.values(), ids=RECORDS.keys())
def test_json_round_trip(cls, make):
    record = make()
    assert type(record) is cls
    d = record.to_dict()
    # A str enum equals its value, so the equality alone would let one through.
    assert _plain(d)
    assert json.loads(json.dumps(d)) == d


def test_every_record_class_is_covered():
    assert {cls for cls, _ in RECORDS.values()} == set(Record.__subclasses__())


# Every field a record derives from its others: record kind, and field name.
DERIVED = (
    ("ConditionReport-grid-1d", "holds_everywhere"),
    ("SweepResult", "all_within_bound"),
    ("Table1Row", "discrepancy"),
    ("SettlingReport", "bound_K_star"),
    ("SettlingReport", "satisfied"),
    ("Lemma1TrialSummary", "passed"),
)


def test_derived_fields_are_not_constructor_arguments():
    derived = {
        (cls, f.name)
        for cls in Record.__subclasses__()
        for f in dataclasses.fields(cls)
        if not f.init
    }
    assert derived == {(RECORDS[kind][0], name) for kind, name in DERIVED}


@pytest.mark.parametrize("cls, make", RECORDS.values(), ids=RECORDS.keys())
def test_every_field_is_written(cls, make):
    names = [f.name for f in dataclasses.fields(cls)]
    if cls is ConditionReport:
        # The two violation columns are written as one list of objects.
        names = [n for n in names if n not in ("where", "residual")] + ["violations"]
    assert sorted(make().to_dict()) == sorted(names)


# For each derived field: the other fields' values it follows, and an edit
# of them with the value it then takes.
FOLLOWS = {
    "holds_everywhere": (
        lambda r: not len(r.residual), dict(where=[], residual=[]), True,
    ),
    "all_within_bound": (
        lambda r: r.worst_settling is not None and r.worst_settling <= r.bound,
        dict(worst_settling=19), True,
    ),
    "discrepancy": (
        lambda r: r.k_star_recomputed != r.k_star_published,
        dict(k_star_published=21, k_star_recomputed=21), False,
    ),
    "bound_K_star": (
        lambda r: r.bound_K1 + r.bound_K2_gap, dict(bound_K1=7, bound_K2_gap=5), 12,
    ),
    "satisfied": (
        lambda r: r.empirical_settling is not None and r.empirical_settling <= r.bound_K_star,
        dict(empirical_settling=None), False,
    ),
    "passed": (lambda r: not r.failures, dict(failures=((3, "q out of bounds"),)), False),
}


@pytest.mark.parametrize("kind, name", DERIVED, ids=[name for _, name in DERIVED])
def test_derived_value_follows_the_other_fields(kind, name):
    rule, edit, edited = FOLLOWS[name]
    record = RECORDS[kind][1]()
    assert getattr(record, name) == rule(record)
    changed = dataclasses.replace(record, **edit)
    assert getattr(changed, name) == rule(changed) == edited != getattr(record, name)
    assert changed.to_dict()[name] == edited


class Colour(Enum):
    RED = "red"


class Level(IntEnum):
    HIGH = 2


@pytest.mark.parametrize("value, expected", [
    ((), []),
    ([], []),
    ((1.5, 2), [1.5, 2]),
    ([(1.0,), (2.0, 3.0)], [[1.0], [2.0, 3.0]]),
    (((1.0, None, 3),), [[1.0, None, 3]]),
    ((((0,),),), [[[0]]]),
    (ConditionId.FT_MIXED, "FT_MIXED"),
    (Colour.RED, "red"),
    (Level.HIGH, 2),
    ((ConditionId.FT_MIXED, Colour.RED), ["FT_MIXED", "red"]),
    ((3, "q out of bounds"), [3, "q out of bounds"]),
    (None, None),
    ("FT_MIXED", "FT_MIXED"),
    (0, 0),
    (-0.0, -0.0),
    (True, True),
    (math.inf, "Infinity"),
    (-math.inf, "-Infinity"),
    (math.nan, "NaN"),
    (-math.nan, "NaN"),
    (np.float64(-math.inf), "-Infinity"),
    ({"k": (1, -math.inf), "e": {"c": Colour.RED}}, {"k": [1, "-Infinity"], "e": {"c": "red"}}),
], ids=[
    "empty-tuple", "empty-list", "tuple", "list-of-tuples", "nested-with-none", "deep",
    "str-enum", "enum", "int-enum", "tuple-of-enums", "failure-pair", "none", "str", "int",
    "negative-zero", "bool", "inf", "minus-inf", "nan", "signed-nan", "numpy-minus-inf", "dict",
])
def test_encode(value, expected):
    out = encode(value)
    assert out == expected
    assert _plain(out)
    assert json.dumps(out, allow_nan=False) == json.dumps(expected)
    if isinstance(value, float) and not math.isfinite(value):
        # Strict JSON has no such number: the string, which float() reads back.
        assert float(out) == value or math.isnan(value) and math.isnan(float(out))


def _sweep_json(settles: bool):
    """A ``sweep.json`` as the CLI writes it, whose worst orbit settles or,
    cut after two steps, does not."""
    case = TABLE1_CASES[0]
    bound = example_bound(*case.params())
    result = sweep_settling(case.system(), [10.0, 1500.0], bound, k_max=None if settles else 2)
    assert (result.worst_settling is not None) == settles
    return json.loads(json.dumps(result.to_dict()))


def _curve_entry(entry) -> bool:
    level, last_outside, first_inside = entry
    return type(level) is float and all(
        type(k) is int or k is None for k in (last_outside, first_inside)
    )


# sweep.json's fields and the JSON types of their values, as settled / unsettled.
SWEEP_TYPES = {
    "case_id": (lambda v: type(v) is str,) * 2,
    "grid_description": (lambda v: type(v) is str,) * 2,
    "epsilon": (lambda v: type(v) is float,) * 2,
    "bound": (lambda v: type(v) is int,) * 2,
    "worst_settling": (lambda v: type(v) is int, lambda v: v is None),
    "worst_x0": (lambda v: type(v) is float,) * 2,
    "all_within_bound": (lambda v: v is True, lambda v: v is False),
    "settling_vs_epsilon": (lambda v: type(v) is list and all(map(_curve_entry, v)),) * 2,
}


@pytest.mark.parametrize("settles", [True, False], ids=["settles", "unsettled"])
@pytest.mark.parametrize("name", SWEEP_TYPES)
def test_sweep_json_field_types(name, settles):
    d = _sweep_json(settles)
    assert sorted(d) == sorted(SWEEP_TYPES)
    assert SWEEP_TYPES[name][0 if settles else 1](d[name])
