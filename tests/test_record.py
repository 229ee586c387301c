"""Every report record survives a JSON round trip through ``to_dict``/``from_dict``."""

import dataclasses
import json

import numpy as np
import pytest

from fixsettle import affine_system
from fixsettle.errors import ParameterDomainError
from fixsettle.lyapunov import (
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
from fixsettle.record import Record
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


@pytest.mark.parametrize("cls, make", RECORDS.values(), ids=RECORDS.keys())
def test_json_round_trip(cls, make):
    record = make()
    assert type(record) is cls
    # Plain dataclass equality tells a tuple from a list, so lists must come back
    # as tuples at every depth.
    decoded = cls.from_dict(json.loads(json.dumps(record.to_dict())))
    assert decoded == record
    assert decoded.to_dict() == record.to_dict()


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


@pytest.mark.parametrize("kind, name", DERIVED, ids=[name for _, name in DERIVED])
def test_stored_derived_value_must_match_the_other_fields(kind, name):
    cls, make = RECORDS[kind]
    record = make()
    d = json.loads(json.dumps(record.to_dict()))
    assert cls.from_dict(d) == record
    value = d[name]
    d[name] = value + 1 if type(value) is int else not value
    with pytest.raises(ParameterDomainError, match=f"stored {name}="):
        cls.from_dict(d)


def test_report_columns_are_typed_by_the_constructor():
    # from_dict passes the raw JSON lists; ConditionReport sets the dtypes.
    for make, kind in ((orbit, "i"), (grid_2d, "f")):
        decoded = ConditionReport.from_dict(json.loads(json.dumps(make().to_dict())))
        assert decoded.where.dtype.kind == kind
        assert decoded.residual.dtype == np.float64
        assert type(decoded.check) is tuple
